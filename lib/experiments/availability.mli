open Relax_quorum
open Relax_prob

(** Experiment X-av of EXPERIMENTS.md: availability of each lattice point
    of the replicated priority queue, exactly (binomial tails) and by
    Monte Carlo cross-check. *)

type row = {
  label : string;
  p : float;  (** per-site up probability *)
  enq_availability : float;
  deq_availability : float;
}

(** P(both quorums of the operation assemblable) with iid site-up
    probability [p]. *)
val op_availability : Assignment.t -> p:float -> string -> float

val exact_table : ?n:int -> ?ps:float list -> unit -> row list

(** Monte Carlo estimate of one cell. *)
val simulate_cell :
  ?trials:int -> Assignment.t -> p:float -> string -> Montecarlo.estimate

(** Exact availability of the same Deq-Deq intersection under uniform
    majority voting vs. Gifford weighting of a reliable site:
    [(uniform, weighted)]. *)
val weighted_comparison : ?site_ps:float array -> unit -> float * float

val claims : unit -> Relax_claims.Claim.t list
val group : unit -> Relax_claims.Registry.group
