(* Structured verdicts: the result of checking one claim.

   A verdict is the machine-readable outcome (status, detail, optional
   counterexample, proof method, checker statistics); every reporter
   renders from it.  The one piece of text it carries is the table a
   report-style claim printed while deciding itself, which the human
   reporter shows verbatim. *)

type status = Pass | Fail | Error of string

(* How a language claim was decided, when it went through the proof
   pipeline of [relax_proof]: a certified forward simulation proves the
   claim for every history within the enqueue envelope at any depth,
   while the enumeration fallback only checks histories up to the depth
   bound.  [None] on claims that never route through the pipeline. *)
type proof_method =
  | Proved_simulation of { enqs : int; relation : int; obligations : int }
  | Bounded of { depth : int }

let proof_method_to_string = function
  | Proved_simulation _ -> "simulation"
  | Bounded _ -> "bounded"

let pp_proof_method ppf = function
  | Proved_simulation { enqs; relation; obligations } ->
    Fmt.pf ppf "simulation (<=%d enqs, %d pairs, %d obligations)" enqs relation
      obligations
  | Bounded { depth } -> Fmt.pf ppf "bounded (depth %d)" depth

type stats = {
  histories : int;  (* histories enumerated while deciding the claim *)
  visited : int;    (* distinct product state-set pairs visited *)
  memo_hits : int;  (* product pairs deduplicated by the memo table *)
  obligations : int; (* simulation obligations discharged *)
  relation : int;   (* certified simulation relation pairs *)
  wall_s : float;   (* wall-clock seconds spent in the claim thunk *)
}

let no_stats =
  {
    histories = 0;
    visited = 0;
    memo_hits = 0;
    obligations = 0;
    relation = 0;
    wall_s = 0.0;
  }

type t = {
  status : status;
  detail : string;
  counterexample : string option;
  proof_method : proof_method option;
  report : string option;
  stats : stats;
}

let make ?(detail = "") ?counterexample ?proof_method status =
  {
    status;
    detail;
    counterexample;
    proof_method;
    report = None;
    stats = no_stats;
  }

let of_bool ?detail ?counterexample ?proof_method ok =
  make ?detail ?counterexample ?proof_method (if ok then Pass else Fail)

let error ?detail ?counterexample msg = make ?detail ?counterexample (Error msg)

let with_stats v stats = { v with stats }

let ok v = match v.status with Pass -> true | Fail | Error _ -> false

let status_to_string = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Error _ -> "error"
