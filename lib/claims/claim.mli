(** A claim: one addressable proof obligation of the reproduction, with
    a stable id, paper reference, kind, and a thunk deciding it.

    Thunks must construct every automaton (and cache) they use
    internally: the engine fans claims out over domains, so a thunk must
    not share mutable state with any other claim. *)

type kind =
  | Inclusion  (** a (strict) bounded language inclusion *)
  | Equivalence  (** a bounded language equality *)
  | Monotone  (** a lattice monotonicity / shape obligation *)
  | Serial_dependency  (** a Definition 3 serial-dependency obligation *)
  | Characterization  (** a behavioral characterization beyond the paper *)
  | Numeric  (** a quantitative claim (probabilities, availability) *)

val kind_to_string : kind -> string

type t = {
  id : string;  (** stable id, [group/claim], e.g. ["pq/theorem4"] *)
  kind : kind;
  paper : string;  (** paper reference, e.g. ["Theorem 4"] *)
  description : string;  (** one-line statement of the claim *)
  check : unit -> Verdict.t;
}

val make :
  id:string ->
  kind:kind ->
  paper:string ->
  description:string ->
  (unit -> Verdict.t) ->
  t

(** [report ... render] is a claim decided by a report-style checker:
    [render ppf] prints its table and returns the overall outcome; the
    captured text becomes the verdict's [report], which the human
    reporter prints in place of the one-line rendering. *)
val report :
  id:string ->
  kind:kind ->
  paper:string ->
  description:string ->
  detail:string ->
  (Format.formatter -> bool) ->
  t
