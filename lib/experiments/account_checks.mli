(** Experiment B3-4 (combinatorial side) of EXPERIMENTS.md: the
    bank-account lattice of Section 3.4 at the language level — the top
    equals the single-copy account, {A2} strictly relaxes it with only
    spurious bounces (never an overdraft), and relaxing A2 admits real
    overdrafts — claims under ["account/"]. *)

val claims : ?depth:int -> unit -> Relax_claims.Claim.t list
val group : ?depth:int -> unit -> Relax_claims.Registry.group
