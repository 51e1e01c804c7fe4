open Relax_core

(** The online conformance oracle, which judges every chaos run.

    Maintains the predicted behavior's automaton frontier as operations
    complete; the frontier after a prefix is empty iff the prefix is
    rejected, so a violation is flagged at the exact operation causing
    it, with the offending prefix in hand for the shrinker.  {!conforms}
    is [Automaton.accepts] of the same automaton, and the violation's
    prefix is the shortest rejected one (both are frontier emptiness of
    the same iterated delta). *)

type violation = {
  index : int;  (** 0-based position of the offending operation *)
  op : Op.t;
  prefix : History.t;  (** shortest rejected prefix, ends with [op] *)
}

type t

val of_automaton : 'v Automaton.t -> t
val automaton_name : t -> string

(** Consume one completed operation.  A no-op once a violation is
    flagged: the oracle freezes on its verdict. *)
val step : t -> Op.t -> unit

val feed : t -> History.t -> unit
val frontier_size : t -> int

(** The frontier's states, rendered via the automaton's state printer —
    what the time-travel debugger shows at each step. *)
val frontier : t -> string list
val violation : t -> violation option
val conforms : t -> bool

(** Operations consumed before freezing, in order. *)
val seen : t -> History.t
