open Relax_core
open Relax_quorum

(** Experiment X-deg of EXPERIMENTS.md: the taxicab company of
    Section 3.3 on the message-passing replica runtime with injected
    crashes, one run per lattice point under an identical fault trace. *)

(** A lattice point: its constraint set and a voting assignment realizing
    it. *)
type point = { label : string; cset : Cset.t; assignment : Assignment.t }

(** The four points over [n] sites ({Q1,Q2}, {Q1}, {Q2}, {}). *)
val points : n:int -> point list

type outcome = {
  label : string;
  requests : int;
  attempted : int;  (** total operations attempted *)
  served : int;
  unavailable : int;  (** quorum not assemblable before the timeout *)
  empty_views : int;  (** Deqs whose view showed nothing to dispatch *)
  duplicates : int;
  inversions : int;
  mean_latency : float;
  history_ok : bool;  (** completed history accepted by the prediction *)
}

val pp_outcome : outcome Fmt.t

(** Extra services of an already-serviced request. *)
val count_duplicates : History.t -> int

(** Deqs that passed over a strictly better pending request. *)
val count_inversions : History.t -> int

(** The behavior the lattice predicts for the constraint set (PQ / MPQ /
    OPQ / DegenPQ) as a fresh incremental conformance oracle. *)
val predicted_online : Cset.t -> Relax_degrade.Online.t

type params = {
  sites : int;
  requests : int;
  crash_probability : float;
  recover_probability : float;
  mean_latency : float;
  seed : int;
}

val default_params : params

(** One lattice point under one (seed-determined) fault trace.  The
    client knobs default to the experiment's historical values
    ([timeout] 120.0, the replica's retry/backoff defaults); `rlx
    simulate taxi --timeout/--retries/--backoff` overrides them. *)
val run_point :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  point ->
  outcome

(** All four points under the same fault trace. *)
val run_all :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  outcome list

val claims :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  Relax_claims.Claim.t list

val group :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  Relax_claims.Registry.group
