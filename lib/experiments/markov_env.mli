open Relax_prob

(** Experiment X-markov of EXPERIMENTS.md: the clean interface between
    the functional and probabilistic models (Section 2.3).  Sites follow
    an up/down Markov chain; the stationary distribution predicts each
    lattice point's availability in closed form, and the discrete-event
    taxi workload driven by the same chain must agree. *)

val site_chain : crash:float -> recover:float -> Markov.t

(** Stationary per-site availability [recover / (crash + recover)]. *)
val stationary_up : crash:float -> recover:float -> float

val claims :
  ?crash:float ->
  ?recover:float ->
  ?requests:int ->
  ?seed:int ->
  unit ->
  Relax_claims.Claim.t list

val group :
  ?crash:float ->
  ?recover:float ->
  ?requests:int ->
  ?seed:int ->
  unit ->
  Relax_claims.Registry.group
