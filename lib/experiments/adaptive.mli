open Relax_core

(** The combined environment+object automaton of Section 2.3 over the
    two-point sublattice (PQ / tracking-DegenPQ on a shared
    present/absent state space), and the quorum assignments an adaptive
    client moves between.  The chaos lattice's [adaptive] point
    ({!Chaos_scenarios}) drives the live degradation controller
    (lib/degrade) over these and judges its event+operation histories
    with {!combined}. *)

val degrade_event : Op.t
val restore_event : Op.t

(** The combined automaton adaptive histories are judged by. *)
val combined : (Cset.t * Relax_objects.Mpq.state) Automaton.t

(** Majority quorums for both operations — the top of the two-point
    lattice the controller moves over. *)
val preferred_assignment : n:int -> Relax_quorum.Assignment.t

(** "Any available site" thresholds — the bottom. *)
val relaxed_assignment : n:int -> Relax_quorum.Assignment.t
