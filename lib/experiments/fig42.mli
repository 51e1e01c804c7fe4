open Relax_core

(** Experiment F4-2 of EXPERIMENTS.md: regenerate the paper's Figure 4-2
    — the relaxation lattice for a three-item semiqueue — by computing
    the bounded behavior of every nonempty constraint subset and grouping
    equal languages. *)

type row = {
  constraint_sets : string list;
  behavior : string;
  annotation : string;  (** "(FIFO queue)" / "(bag, ...)" markers *)
}

val compute :
  ?alphabet:Language.alphabet -> ?depth:int -> ?n:int -> unit -> row list

(** The expected class sizes by the lowest-index grouping:
    [(k, 2^(n-k))]. *)
val expected_rows : int -> (int * int) list

val claims :
  ?alphabet:Language.alphabet ->
  ?depth:int ->
  ?n:int ->
  unit ->
  Relax_claims.Claim.t list

val group :
  ?alphabet:Language.alphabet ->
  ?depth:int ->
  ?n:int ->
  unit ->
  Relax_claims.Registry.group
