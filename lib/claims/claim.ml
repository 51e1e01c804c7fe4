(* A claim: one addressable proof obligation of the reproduction.

   Claims are what the paper's "evaluation" consists of — Theorem 4, the
   Section 3.3/3.4 lattice equalities, the Section 4.2 collapses, the
   probabilistic and simulation claims — each with a stable id
   ("pq/theorem4"), the paper reference it mechanizes, a kind, and a
   thunk that decides it and returns a structured verdict.  The thunk
   must construct every automaton (and its caches) it needs internally:
   claims are fanned out over domains by the engine and must not share
   mutable state. *)

type kind =
  | Inclusion
  | Equivalence
  | Monotone
  | Serial_dependency
  | Characterization
  | Numeric

let kind_to_string = function
  | Inclusion -> "inclusion"
  | Equivalence -> "equivalence"
  | Monotone -> "monotone"
  | Serial_dependency -> "serial-dependency"
  | Characterization -> "characterization"
  | Numeric -> "numeric"

type t = {
  id : string;
  kind : kind;
  paper : string;
  description : string;
  check : unit -> Verdict.t;
}

let make ~id ~kind ~paper ~description check =
  { id; kind; paper; description; check }

(* A claim decided by a report-style checker: [render] prints its table
   into the formatter and returns the overall outcome; the captured text
   is the verdict's report, which the human reporter shows verbatim. *)
let report ~id ~kind ~paper ~description ~detail render =
  make ~id ~kind ~paper ~description (fun () ->
      let buf = Buffer.create 512 in
      let ppf = Format.formatter_of_buffer buf in
      let ok = render ppf in
      Format.pp_print_flush ppf ();
      let report = Some (Buffer.contents buf) in
      { (Verdict.of_bool ok ~detail) with report })
