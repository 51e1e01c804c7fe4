(* What one whole pass of a workload produced.  A pass is the unit the
   timed loop repeats; it always runs to completion. *)

type call = {
  tag : string;  (** the claim or lattice point the call served *)
  ms : float;  (** wall milliseconds of the call *)
}

type t = {
  calls : call list;  (** every timed call, in order *)
  units : float;  (** work done, in the workload's unit for [ops_per_s] *)
  failed : int;  (** calls whose output was wrong *)
  counts : (string * float) list;
      (** per-pass counts of work done; pass [k] of every run at the same
          seed gives the same counts *)
  wall_s : float;
}

let count p name =
  match List.assoc_opt name p.counts with
  | Some v -> v
  | None -> invalid_arg ("Pass.count: no count " ^ name)

(* The median wall milliseconds of the calls tagged [tag]. *)
let median_ms passes tag =
  Quant.median
    (List.concat_map
       (fun p ->
         List.filter_map
           (fun c -> if c.tag = tag then Some c.ms else None)
           p.calls)
       passes)

(* What a workload gives [main.ml] to run. *)
type workload = {
  warm_up : unit -> int;  (** one untimed call; returns its failed outputs *)
  pass : Span.recorder -> int -> t;
      (** [pass r k] runs pass [k]; its inputs depend only on the seed
          and [k] *)
  post_check : unit -> int * int;
      (** checks outside the timed phase: (attempted, failed) *)
  layers : t -> t list -> (string * Span.layer_time) list -> (string * float) list;
      (** per-layer metrics: counts from the run's first pass, times from
          the traced passes and their per-layer self times *)
  extra : t list -> (string * float) list;
      (** workload-specific figures printed beside the result line *)
}
