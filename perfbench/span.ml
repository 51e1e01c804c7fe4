(* The benchmark's clock, allocation counter and spans.

   Spans go to an explicit [Relax_obs.Tracer.t] owned by the benchmark,
   never to the ambient tracer: [Ldfi_x.system] installs a private
   ambient tracer around every execution it runs.  Span names are
   [<layer>/<detail>]; a layer's self time is its spans' durations minus
   the part covered by their child spans.  Events stay in memory until
   the run writes them out. *)

module Tracer = Relax_obs.Tracer

let origin = Unix.gettimeofday ()
let last_ms = ref 0.0

(* Wall milliseconds since start, clamped to never run backwards. *)
let now_ms () =
  let t = (Unix.gettimeofday () -. origin) *. 1000.0 in
  if t > !last_ms then last_ms := t;
  !last_ms

(* Words allocated by this domain so far: minor allocations plus those
   made directly in the major heap. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Collect the heap before a call, outside the call's timing: the call
   then starts with no garbage left by the call before it, so its time
   does not depend on the order of calls. *)
let fresh_heap () = Gc.compact ()

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

type recorder = Tracer.t option

(* [enclose r name f] runs [f] inside a [name] span when recording. *)
let enclose (r : recorder) name f =
  match r with
  | None -> f ()
  | Some t ->
    Tracer.begin_span t ~time:(now_ms ()) name;
    let v = f () in
    Tracer.end_span t ~time:(now_ms ()) ();
    v

(* Record a leaf span measured by the caller, [start_ms] to [stop_ms]. *)
let leaf (r : recorder) name ~start_ms ~stop_ms =
  match r with
  | None -> ()
  | Some t -> Tracer.complete t ~time:start_ms ~dur:(stop_ms -. start_ms) name

let layer_of name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

type layer_time = { spans : int; total_ms : float; self_ms : float }

(* Per-layer span count, total and self time, sorted by layer name. *)
let self_times events =
  let acc : (string, layer_time) Hashtbl.t = Hashtbl.create 8 in
  let add name dur self =
    let l = layer_of name in
    let c =
      Option.value (Hashtbl.find_opt acc l)
        ~default:{ spans = 0; total_ms = 0.0; self_ms = 0.0 }
    in
    Hashtbl.replace acc l
      {
        spans = c.spans + 1;
        total_ms = c.total_ms +. dur;
        self_ms = c.self_ms +. self;
      }
  in
  (* open spans: name, start, time covered by children *)
  let stack = ref [] in
  let covered_by_child dur =
    match !stack with
    | (n, s, c) :: rest -> stack := (n, s, c +. dur) :: rest
    | [] -> ()
  in
  List.iter
    (fun (e : Tracer.event) ->
      match e.kind with
      | Tracer.Begin -> stack := (e.name, e.ts, 0.0) :: !stack
      | Tracer.End -> (
        match !stack with
        | (n, s, c) :: rest ->
          stack := rest;
          let dur = e.ts -. s in
          add n dur (dur -. c);
          covered_by_child dur
        | [] -> invalid_arg "Span.self_times: unbalanced spans")
      | Tracer.Complete d ->
        add e.name d d;
        covered_by_child d
      | Tracer.Instant | Tracer.Counter _ -> ())
    events;
  Hashtbl.fold (fun l t xs -> (l, t) :: xs) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let self_s table layer =
  match List.assoc_opt layer table with
  | Some t -> t.self_ms /. 1000.0
  | None -> 0.0

let pp_table ppf table =
  Format.fprintf ppf "%-10s %8s %12s %12s@\n" "layer" "spans" "total_s" "self_s";
  List.iter
    (fun (l, t) ->
      Format.fprintf ppf "%-10s %8d %12.6f %12.6f@\n" l t.spans
        (t.total_ms /. 1000.0) (t.self_ms /. 1000.0))
    table
