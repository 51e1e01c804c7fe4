module Chaos = Relax_chaos

(** Experiment X-degrade: the live degradation controller vs static
    lattice points under identical fault schedules — the engine behind
    `rlx degrade run|sweep`.

    Each seeded comparison runs the same workload and nemesis schedule
    with the controller, with static top and with static bottom, and
    reports the availability uplift, the online conformance verdicts,
    the mode-switch timeline and the transition-latency distributions. *)

type comparison = {
  seed : int;
  controlled : Chaos.Runner.result;
  static_top : Chaos.Runner.result;
  static_bottom : Chaos.Runner.result;
}

(** Completed fraction of the operations that wanted service. *)
val availability : Chaos.Runner.result -> float

val run_one :
  ?config:Chaos.Runner.config ->
  nemeses:string list ->
  int ->
  (comparison, string) result

type sweep_report = {
  comparisons : comparison list;
  violations : int;  (** controlled histories outside the language *)
  switch_limit : int;  (** the hysteresis bound per run *)
  max_switches : int;
}

(** Run [runs] comparisons (run [i] uses seed [seed + i]), fanned out
    over domains in input order — identical report at any [jobs]. *)
val sweep :
  ?jobs:int ->
  ?config:Chaos.Runner.config ->
  ?controller:Relax_degrade.Controller.config ->
  runs:int ->
  seed:int ->
  nemeses:string list ->
  unit ->
  (sweep_report, string) result

(** [quantile q samples]: the [q]-quantile (nearest rank) — [nan] on
    empty input. *)
val quantile : float -> float list -> float

val restore_times : sweep_report -> float list
val degrade_times : sweep_report -> float list
val pp_summary : sweep_report Fmt.t

(** One line per mode switch ([seed=.. at=.. DEGRADE/RESTORE cause=..]) —
    the artifact the CI sweep uploads. *)
val pp_timeline : sweep_report Fmt.t

val claims : unit -> Relax_claims.Claim.t list
val group : unit -> Relax_claims.Registry.group
