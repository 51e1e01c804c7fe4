open Relax_core

(** Experiment X-fifo of EXPERIMENTS.md: the replicated FIFO queue —
    the paper's Section 3.1 motivating example — fully characterized:
    {Q1,Q2} -> FIFO, {Q1} -> RFQ (replayable FIFO), {Q2} -> Bag,
    {} -> DegenPQ, plus serial-dependency and monotonicity checks —
    claims under ["fifo/"].  With [strategy] the four lattice points
    route through the proof pipeline of [relax_proof]. *)

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
