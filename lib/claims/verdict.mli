(** Structured verdicts: the result of checking one claim.

    A verdict carries the machine-readable outcome — status, a short
    detail, an optional counterexample history (rendered), the proof
    method that decided it, and checker statistics.  Every reporter
    renders from these fields; the only text a verdict carries is the
    table a report-style claim printed ({!Relax_claims.Claim.report}). *)

type status =
  | Pass
  | Fail
  | Error of string  (** the claim thunk raised; carries the message *)

(** How a language claim was decided, when it routed through the proof
    pipeline of [relax_proof].  A certified forward simulation proves
    the claim for every history with at most [enqs] enqueues at any
    depth; the enumeration fallback only checks histories up to the
    depth bound.  [None] on claims that never route through the
    pipeline (non-language claims, or the legacy direct checkers). *)
type proof_method =
  | Proved_simulation of { enqs : int; relation : int; obligations : int }
  | Bounded of { depth : int }

(** ["simulation"] or ["bounded"] — the stable identifiers used by the
    JSON reporter and [expected_claims.json]. *)
val proof_method_to_string : proof_method -> string

val pp_proof_method : proof_method Fmt.t

type stats = {
  histories : int;  (** histories enumerated while deciding the claim *)
  visited : int;  (** distinct product state-set pairs visited *)
  memo_hits : int;  (** product pairs deduplicated by the memo table *)
  obligations : int;
      (** simulation obligations discharged by the proof pipeline *)
  relation : int;  (** certified simulation relation pairs *)
  wall_s : float;  (** wall-clock seconds spent in the claim thunk *)
}

val no_stats : stats

type t = {
  status : status;
  detail : string;  (** one-line elaboration ("209 histories, depth 5") *)
  counterexample : string option;  (** rendered separating history *)
  proof_method : proof_method option;
  report : string option;
      (** the table a report-style claim printed, newline-terminated;
          [None] for claims the human reporter renders as one line from
          the fields above *)
  stats : stats;
}

val make :
  ?detail:string ->
  ?counterexample:string ->
  ?proof_method:proof_method ->
  status ->
  t

(** [of_bool ok] is [Pass] when [ok], else [Fail]. *)
val of_bool :
  ?detail:string ->
  ?counterexample:string ->
  ?proof_method:proof_method ->
  bool ->
  t

val error : ?detail:string -> ?counterexample:string -> string -> t

(** Replace the stats (the engine measures them around the thunk). *)
val with_stats : t -> stats -> t

(** [true] iff the status is [Pass]. *)
val ok : t -> bool

val status_to_string : status -> string
