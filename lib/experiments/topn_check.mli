(** Experiment P3-3 of EXPERIMENTS.md: the Section 3.3 probability claim
    — P(Deq misses the top-n priorities) = 0.1^n — as a paper-vs-measured
    table with Wilson intervals (claim ["prob/topn"]). *)

val claims : ?trials:int -> ?max_n:int -> unit -> Relax_claims.Claim.t list
val group : ?trials:int -> ?max_n:int -> unit -> Relax_claims.Registry.group
