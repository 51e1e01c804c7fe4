(* The time-travel debugger: step forwards *and* backwards through a
   recorded chaos run.

   A recorded run is just its fault trace — replay is deterministic, so
   re-running the trace under a private tracer regenerates every event
   the original run produced.  From that flat event list we build a
   timeline of semantic steps (faults, mode switches, operation starts
   and completions, recoveries, the verdict), each carrying a snapshot
   of the run's state *after* the step:

   - the set of physical message copies still in flight (every copy has
     an identified "net/send" and ends in exactly one "net/deliver" or
     "net/drop", so the pending set is exact),
   - the controller mode,
   - the length of the history prefix the online oracle has consumed.

   Backward stepping needs the oracle's automaton frontier at *every*
   prefix, not just the last — so we precompute the frontier after each
   history prefix by feeding a fresh online oracle one operation at a
   time (the frontier after prefix [k] is a pure function of the
   prefix).  Stepping to any point in time is then an O(1) array
   lookup, in either direction.

   Recordings are single-file journals (lib/journal's checksummed
   record format): record 0 is the serialized fault trace.  A torn or
   bit-flipped recording fails loudly on the CRC instead of replaying
   the wrong run. *)

open Relax_core
module Chaos = Relax_chaos
module Tracer = Relax_obs.Tracer
module Attr = Relax_obs.Attr
module Journal = Relax_journal.Journal

(* ------------------------------------------------------------------ *)
(* Timeline construction                                               *)
(* ------------------------------------------------------------------ *)

type copy = { src : int; dst : int; seq : int }

let compare_copy a b =
  match compare a.src b.src with
  | 0 -> ( match compare a.dst b.dst with 0 -> compare a.seq b.seq | c -> c)
  | c -> c

let copy_to_string c = Fmt.str "%d>%d#%d" c.src c.dst c.seq

type step = {
  index : int;
  time : float;  (* engine virtual time of the underlying event *)
  what : string;  (* rendered description *)
  hist : int;  (* history prefix consumed after this step *)
  pending : copy list;  (* message copies in flight after this step *)
  degraded : bool;  (* controller mode after this step *)
}

type session = {
  trace : Chaos.Trace.t;
  result : Chaos.Runner.result;
  automaton : string;
  ops : Op.t array;  (* the history, indexable by prefix length *)
  steps : step array;
  frontiers : string list array;  (* frontier after each history prefix *)
}

let attr name attrs = List.assoc_opt name attrs

let attr_int name attrs =
  match attr name attrs with Some (Attr.Int n) -> Some n | _ -> None

let attr_str name attrs =
  match attr name attrs with Some (Attr.Str s) -> Some s | _ -> None

let attr_bool name attrs =
  match attr name attrs with Some (Attr.Bool b) -> Some b | _ -> None

(* Fold the flat event list into the semantic timeline.  Network events
   only mutate the pending set; the listed names become steps. *)
let build_steps (events : Tracer.event list) (ops : Op.t array) =
  let pending : (copy, unit) Hashtbl.t = Hashtbl.create 64 in
  let snapshot () =
    Hashtbl.fold (fun c () acc -> c :: acc) pending []
    |> List.sort compare_copy
  in
  let hist = ref 0
  and degraded = ref false
  and steps = ref [] in
  let nops = Array.length ops in
  let push time what =
    steps :=
      {
        index = List.length !steps;
        time;
        what;
        hist = !hist;
        pending = snapshot ();
        degraded = !degraded;
      }
      :: !steps
  in
  let consume_op () = if !hist < nops then incr hist in
  List.iter
    (fun (e : Tracer.event) ->
      if e.kind = Tracer.Instant then begin
        let i name = attr_int name e.attrs
        and s name = attr_str name e.attrs in
        let get o = Option.value o ~default:(-1) in
        match e.name with
        | "net/send" ->
          Option.iter
            (fun seq ->
              Hashtbl.replace pending
                { src = get (i "src"); dst = get (i "dst"); seq }
                ())
            (i "seq")
        | "net/deliver" | "net/drop" ->
          Option.iter
            (fun seq ->
              Hashtbl.remove pending
                { src = get (i "src"); dst = get (i "dst"); seq })
            (i "seq")
        | "chaos/op-window" ->
          push e.ts (Fmt.str "slot %d opens" (get (i "index")))
        | "chaos/fault" ->
          push e.ts
            (Fmt.str "fault: %s" (Option.value (s "action") ~default:"?"))
        | "chaos/mode" ->
          let d = Option.value (attr_bool "degraded" e.attrs) ~default:false in
          degraded := d;
          (* a controlled client's mode switch is itself a history event
             (the Degrade/Restore operation the oracle consumes) *)
          consume_op ();
          push e.ts
            (Fmt.str "mode switch: now %s"
               (if d then "degraded" else "preferred"))
        | "replica/op" ->
          push e.ts
            (Fmt.str "op %d (%s) starts at site %d" (get (i "op"))
               (Option.value (s "name") ~default:"?")
               (get (i "site")))
        | "replica/complete" ->
          consume_op ();
          let rendered =
            if !hist >= 1 && !hist <= nops then
              Fmt.str ": %a" Op.pp ops.(!hist - 1)
            else ""
          in
          push e.ts
            (Fmt.str "op %d completes (attempt %d)%s" (get (i "op"))
               (get (i "attempt")) rendered)
        | "replica/unavailable" ->
          push e.ts
            (Fmt.str "op %d unavailable (%s)" (get (i "op"))
               (Option.value (s "reason") ~default:"?"))
        | "replica/recover" ->
          push e.ts
            (Fmt.str
               "site %d recovers from its journal: %d entries from %d \
                records, %d torn byte(s) dropped"
               (get (i "site")) (get (i "entries")) (get (i "records"))
               (get (i "dropped")))
        | "degrade/violation" ->
          push e.ts
            (Fmt.str "VIOLATION: %s rejects the history at op index %d"
               (Option.value (s "automaton") ~default:"?")
               (get (i "index")))
        | "chaos/quiesce" -> push e.ts "quiesce: final anti-entropy drain"
        | _ -> ()
      end)
    events;
  Array.of_list (List.rev !steps)

(* The frontier after every history prefix, by feeding a fresh online
   oracle one operation at a time.  After a violation the oracle
   freezes on the empty frontier, which is exactly what the debugger
   should show for the rejected suffix. *)
let precompute_frontiers (sc : Chaos_scenarios.scenario) (ops : Op.t array) =
  let o = sc.online () in
  let n = Array.length ops in
  let frontiers = Array.make (n + 1) [] in
  frontiers.(0) <- Relax_degrade.Online.frontier o;
  for k = 0 to n - 1 do
    Relax_degrade.Online.step o ops.(k);
    frontiers.(k + 1) <- Relax_degrade.Online.frontier o
  done;
  (Relax_degrade.Online.automaton_name o, frontiers)

let session_of_trace (trace : Chaos.Trace.t) =
  match Chaos_scenarios.find trace.Chaos.Trace.point with
  | Error e -> Error e
  | Ok sc -> (
    let tracer = Tracer.create () in
    match
      Tracer.Ambient.with_tracer tracer (fun () ->
          Chaos_scenarios.run_trace trace)
    with
    | Error e -> Error e
    | Ok result ->
      let ops = Array.of_list result.Chaos.Runner.history in
      let automaton, frontiers = precompute_frontiers sc ops in
      let steps = build_steps (Tracer.events tracer) ops in
      Ok { trace; result; automaton; ops; steps; frontiers })

(* ------------------------------------------------------------------ *)
(* Recordings                                                          *)
(* ------------------------------------------------------------------ *)

let recording_tag = "chaos-recording\n"

let save_recording path trace =
  Journal.write_file path [ recording_tag ^ Chaos.Trace.to_string trace ]

let load_recording path =
  match Journal.read_file path with
  | Error e -> Error e
  | Ok ([], _) -> Error (path ^ ": recording holds no intact record")
  | Ok (first :: _, _) ->
    let tlen = String.length recording_tag in
    if
      String.length first > tlen
      && String.equal (String.sub first 0 tlen) recording_tag
    then
      try Ok (Chaos.Trace.of_string (String.sub first tlen (String.length first - tlen)))
      with _ -> Error (path ^ ": recording carries a malformed trace")
    else Error (path ^ ": not a chaos recording")

let is_recording = Journal.file_has_magic

(* ------------------------------------------------------------------ *)
(* The stepper                                                         *)
(* ------------------------------------------------------------------ *)

let clamp lo hi v = max lo (min hi v)

let show_step ppf session at =
  let n = Array.length session.steps in
  if n = 0 then Fmt.pf ppf "empty timeline@."
  else begin
    let st = session.steps.(clamp 0 (n - 1) at) in
    Fmt.pf ppf "step %d/%d  t=%.1f  %s@." st.index (n - 1) st.time st.what;
    Fmt.pf ppf "  mode %s | history %d/%d op(s) | %d copy(ies) in flight@."
      (if st.degraded then "degraded" else "preferred")
      st.hist (Array.length session.ops)
      (List.length st.pending)
  end

let show_frontier ppf session at =
  let n = Array.length session.steps in
  if n = 0 then Fmt.pf ppf "empty timeline@."
  else begin
    let st = session.steps.(clamp 0 (n - 1) at) in
    let f = session.frontiers.(st.hist) in
    Fmt.pf ppf "oracle %s after %d op(s):@." session.automaton st.hist;
    if f = [] then
      Fmt.pf ppf "  (empty frontier — this history prefix is rejected)@."
    else List.iter (fun s -> Fmt.pf ppf "  %s@." s) f
  end

let show_pending ppf session at =
  let n = Array.length session.steps in
  if n = 0 then Fmt.pf ppf "empty timeline@."
  else begin
    let st = session.steps.(clamp 0 (n - 1) at) in
    if st.pending = [] then Fmt.pf ppf "no copies in flight@."
    else
      List.iter
        (fun c -> Fmt.pf ppf "  in flight: %s@." (copy_to_string c))
        st.pending
  end

let show_info ppf session =
  let t = session.trace in
  let r = session.result in
  Fmt.pf ppf "point %s | seed %d | nemeses [%s]@." t.Chaos.Trace.point
    t.Chaos.Trace.config.Chaos.Runner.seed
    (String.concat " " t.Chaos.Trace.nemeses);
  Fmt.pf ppf
    "%d step(s) | %d completed | %d unavailable | %d mode switch(es) | %d \
     recovery(ies)@."
    (Array.length session.steps)
    r.Chaos.Runner.completed r.Chaos.Runner.unavailable
    r.Chaos.Runner.mode_switches r.Chaos.Runner.recoveries;
  Fmt.pf ppf "verdict: %a@." Chaos.Runner.pp_verdict r

let show_listing ppf session at =
  let n = Array.length session.steps in
  if n = 0 then Fmt.pf ppf "empty timeline@."
  else begin
    let at = clamp 0 (n - 1) at in
    let lo = clamp 0 (n - 1) (at - 3) and hi = clamp 0 (n - 1) (at + 3) in
    for i = lo to hi do
      let st = session.steps.(i) in
      Fmt.pf ppf "%s %4d  t=%7.1f  %s@."
        (if i = at then ">" else " ")
        i st.time st.what
    done
  end

let help_text =
  "commands:\n\
  \  n [K]   step forward (K steps)\n\
  \  b [K]   step backward (K steps)\n\
  \  g N     go to step N\n\
  \  l       list the timeline around the current step\n\
  \  f       show the oracle's automaton frontier here\n\
  \  p       show the message copies in flight here\n\
  \  i       show the run summary and verdict\n\
  \  h       this help\n\
  \  q       quit"

(* One command against the cursor; returns the new cursor, or [None] to
   quit.  Unknown input gets the help text, so a stray line in a script
   cannot silently desynchronize the session. *)
let execute ppf session at line =
  let n = Array.length session.steps in
  let last = max 0 (n - 1) in
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  match words with
  | [] -> Some at
  | [ "q" ] | [ "quit" ] -> None
  | [ "h" ] | [ "help" ] | [ "?" ] ->
    Fmt.pf ppf "%s@." help_text;
    Some at
  | "n" :: rest ->
    let k =
      match rest with [ s ] -> Option.value (int_of_string_opt s) ~default:1 | _ -> 1
    in
    let at = clamp 0 last (at + k) in
    show_step ppf session at;
    Some at
  | "b" :: rest ->
    let k =
      match rest with [ s ] -> Option.value (int_of_string_opt s) ~default:1 | _ -> 1
    in
    let at = clamp 0 last (at - k) in
    show_step ppf session at;
    Some at
  | [ "g"; s ] when int_of_string_opt s <> None ->
    let at = clamp 0 last (int_of_string s) in
    show_step ppf session at;
    Some at
  | [ "l" ] | [ "list" ] ->
    show_listing ppf session at;
    Some at
  | [ "f" ] | [ "frontier" ] ->
    show_frontier ppf session at;
    Some at
  | [ "p" ] | [ "pending" ] ->
    show_pending ppf session at;
    Some at
  | [ "i" ] | [ "info" ] ->
    show_info ppf session;
    Some at
  | _ ->
    Fmt.pf ppf "unknown command %S@.%s@." (String.trim line) help_text;
    Some at

(* The driver loop.  [input] yields one command line per call ([None] on
   end of input); [echo] controls whether the prompt+command is printed
   before the response — scripts echo so the transcript reads like an
   interactive session, terminals don't (the user already sees their
   own typing). *)
let drive ppf session ~echo input =
  show_info ppf session;
  show_step ppf session 0;
  let rec loop at =
    match input () with
    | None -> ()
    | Some line -> (
      if echo then Fmt.pf ppf "rlx-debug> %s@." (String.trim line);
      match execute ppf session at line with
      | None -> ()
      | Some at -> loop at)
  in
  loop 0;
  Fmt.pf ppf "@?"

let run_script ppf session script =
  let ic = open_in script in
  let input () = try Some (input_line ic) with End_of_file -> None in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> drive ppf session ~echo:true input)

let run_interactive ppf session =
  let input () =
    Fmt.pf ppf "rlx-debug> @?";
    try Some (input_line stdin) with End_of_file -> None
  in
  drive ppf session ~echo:false input
