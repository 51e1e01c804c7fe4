open Relax_txn

(** Experiments A4-2 / X-conc of EXPERIMENTS.md: the printing service of
    Section 4.2 under the three concurrency-control policies, each
    recorded schedule checked against the atomic relaxation-lattice point
    the paper predicts. *)

type outcome = {
  policy : Spool.policy;
  k : int;  (** configured concurrency bound *)
  observed_dequeuers : int;
  blocked : int;  (** dequeue attempts the object refused *)
  inversions : int;
  duplicates : int;
  atomic_predicted : bool;  (** Def. 6 atomicity at the predicted point *)
  fifo_in_commit_order : bool;
}

val pp_outcome : outcome Fmt.t

(** Definition 6 atomicity of a schedule at the point predicted for the
    policy and concurrency bound. *)
val predicted_atomic : Spool.policy -> int -> Schedule.t -> bool

val run_one :
  ?items:int -> ?seed:int -> ?abort_probability:float -> Spool.policy ->
  k:int -> outcome

(** The full policy x concurrency sweep. *)
val sweep : ?ks:int list -> ?seeds:int list -> unit -> outcome list

val claims : ?seeds:int list -> unit -> Relax_claims.Claim.t list
val group : ?seeds:int list -> unit -> Relax_claims.Registry.group
