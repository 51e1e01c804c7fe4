open Relax_quorum

(** Experiment B3-4 (runtime side) of EXPERIMENTS.md: the replicated bank
    account of Section 3.4 — lazy credit propagation, majority debits,
    spurious bounces racing the gossip, and the never-overdrawn safety
    property. *)

type params = {
  sites : int;
  rounds : int;
  mean_latency : float;
  seed : int;
}

val default_params : params

(** The voting assignment: credits complete on one ack; debits read a
    majority unless [relax_a2]. *)
val assignment : relax_a2:bool -> n:int -> Assignment.t

type outcome = {
  think_time : float;
  credits : int;
  debits_ok : int;
  bounces : int;
  spurious_bounces : int;  (** bounced although the true balance covered it *)
  overdrafts : int;  (** prefixes with a negative true balance *)
  never_overdrawn : bool;
}

val pp_outcome : outcome Fmt.t

(** One run at a fixed think time.  The client knobs default to the
    experiment's historical values ([timeout] 300.0, the replica's
    retry/backoff defaults). *)
val run_once :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  relax_a2:bool ->
  think_time:float ->
  unit ->
  outcome

(** Sweep the think time (A2 kept). *)
val sweep :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?think_times:float list ->
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
