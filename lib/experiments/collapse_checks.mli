open Relax_core

(** Experiments F4-1 / F4-3 of EXPERIMENTS.md: the boundary collapses of
    the semiqueue / stuttering / SSqueue families (Semiqueue_1 = FIFO,
    SSqueue_{1,1} = FIFO, ...) and the strict inclusion chains between
    consecutive members, with witnesses — claims under ["collapses/"].

    With [strategy] the language claims route through the proof pipeline
    of [relax_proof]; the Semiqueue_1 = FIFO and Semiqueue_3 = Bag
    collapses additionally audit their certified simulations through the
    larch theories (fifoq, mbag). *)

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
