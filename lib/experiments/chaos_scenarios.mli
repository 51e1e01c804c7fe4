module Chaos = Relax_chaos

(** Experiment X-chaos: the chaos runner wired to the paper's objects.

    A scenario is a lattice point of the replicated priority queue (the
    four fixed points of X-deg plus the adaptive client of X-adapt,
    judged by the Section 2.3 combined automaton) together with the
    online conformance oracle for the behavior phi(C) predicts for it.
    [sweep] drives seeded nemesis runs across domains and shrinks any
    violation to a 1-minimal replayable trace — the engine behind `rlx
    chaos`. *)

type scenario = {
  name : string;
  description : string;
  lattice : string;
      (** The point's constraint set rendered ("{Q1,Q2}", ...), or
          ["adaptive"] — the lattice-point attribute on trace spans. *)
  durable : bool;
      (** Sites keep write-ahead journals: Crash faults are power
          losses (volatile logs evaporate, the journal keeps its synced
          prefix), Recover replays the journal.  The "recover" point is
          judged against top's {Q1,Q2}; "lost" — swept with amnesia —
          against the empty cset, the honest position once stable
          storage itself can vanish. *)
  client : sites:int -> Chaos.Runner.client;
  online : unit -> Relax_degrade.Online.t;
      (** a fresh incremental oracle over the predicted behavior, threaded
          into each run so violations localize to the causing event *)
}

val all : scenario list
val names : string list
val find : string -> (scenario, string) result

(** Every nemesis under which conformance is a theorem (amnesia is
    excluded: it breaks the stable-storage assumption on purpose). *)
val default_nemeses : string list

(** Generate the fault schedule for a point/nemesis-mix/config triple
    (the schedule RNG stream is derived from [config.seed]). *)
val make_trace :
  point:string ->
  nemeses:string list ->
  config:Chaos.Runner.config ->
  (Chaos.Trace.t, string) result

(** Replay a trace, its history judged by the point's online oracle
    ([result.violation]); [Error] on an unknown point. *)
val run_trace : Chaos.Trace.t -> (Chaos.Runner.result, string) result

(** Shrink a violating trace to a 1-minimal one (returns the trace
    unchanged if it does not violate); also returns the probe count. *)
val shrink_trace : Chaos.Trace.t -> Chaos.Trace.t * int

type run_report = {
  index : int;
  trace : Chaos.Trace.t;
  result : Chaos.Runner.result;
}

type violation = {
  report : run_report;
  shrunk : Chaos.Trace.t;
  probes : int;
}

type sweep_report = { reports : run_report list; violations : violation list }

(** [sweep ~runs ~seed ~nemeses ~points ()] runs [runs] seeded chaos
    runs (run [i] uses seed [seed + i] and point [i mod |points|]),
    fanned out over domains in input order — the report is identical at
    any [jobs].  Violations are shrunk unless [shrink] is [false]. *)
val sweep :
  ?jobs:int ->
  ?config:Chaos.Runner.config ->
  ?shrink:bool ->
  runs:int ->
  seed:int ->
  nemeses:string list ->
  points:string list ->
  unit ->
  (sweep_report, string) result

val pp_summary : sweep_report Fmt.t
val group : unit -> Relax_claims.Registry.group
