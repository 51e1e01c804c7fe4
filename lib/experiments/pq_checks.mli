open Relax_core

(** Experiments T4 / C3-O / C3-D / L3-3 / C3-eta' of EXPERIMENTS.md:
    mechanized checks of every Section 3.3 claim about the replicated
    priority queue lattice, including Theorem 4 and our DPQ
    characterization of the [eta'] variant — as claims under ["pq/"].

    This module also hosts the check-record type and the claim
    constructors shared by the other language-level check modules. *)

(** A decided check; the claim's description names it. *)
type check = { ok : bool; detail : string }

(** The enqueue-envelope weight of the proof pipeline on the queue
    alphabets: 1 per enqueue, 0 otherwise. *)
val queue_weight : Op.t -> int

(** The {!Relax_claims.Verdict.proof_method} view of a pipeline
    method. *)
val method_of_pipeline :
  Relax_proof.Pipeline.method_ -> Relax_claims.Verdict.proof_method

(** A claim decided by a thunk returning a check and an optional rendered
    separating history. *)
val check_claim :
  id:string ->
  kind:Relax_claims.Claim.kind ->
  paper:string ->
  description:string ->
  (unit -> check * string option) ->
  Relax_claims.Claim.t

(** {!check_claim} for checks that also report how they were proved. *)
val proof_claim :
  id:string ->
  kind:Relax_claims.Claim.kind ->
  paper:string ->
  description:string ->
  (unit -> check * string option * Relax_claims.Verdict.proof_method option) ->
  Relax_claims.Claim.t

(** A claim decided by a bare boolean thunk; the string describes it. *)
val bool_claim :
  id:string ->
  kind:Relax_claims.Claim.kind ->
  paper:string ->
  string ->
  (unit -> bool) ->
  Relax_claims.Claim.t

(** A bounded language-equivalence claim; the thunk builds both automata
    inside the claim.  [kind] defaults to [Equivalence].  With
    [strategy] the decision routes through the proof pipeline of
    [relax_proof] (simulation synthesis under the enqueue envelope,
    bounded-enumeration fallback) and the verdict carries the method;
    without it the claim is decided exactly as before, by
    {!Relax_core.Language.equivalent}.  [audit] ([audit_rev]) is the
    reified-equality oracle for the forward (reverse) certification
    pass — construct it eagerly so the larch theories are elaborated on
    the main domain, not inside the (possibly parallel) claim thunk. *)
val equivalence_claim :
  id:string ->
  ?kind:Relax_claims.Claim.kind ->
  ?strategy:Relax_proof.Strategy.t ->
  ?audit:('v -> 'w -> [ `Equal | `Unequal | `Unknown ]) ->
  ?audit_rev:('w -> 'v -> [ `Equal | `Unequal | `Unknown ]) ->
  paper:string ->
  string ->
  (unit -> 'v Automaton.t * 'w Automaton.t) ->
  alphabet:Language.alphabet ->
  depth:int ->
  Relax_claims.Claim.t

(** All claims; defaults: universe {1,2}, depth 5, no strategy (legacy
    checkers). *)
val claims :
  ?alphabet:Language.alphabet ->
  ?depth:int ->
  ?strategy:Relax_proof.Strategy.t ->
  unit ->
  Relax_claims.Claim.t list

val group :
  ?alphabet:Language.alphabet ->
  ?depth:int ->
  ?strategy:Relax_proof.Strategy.t ->
  unit ->
  Relax_claims.Registry.group
