(** The claim engine: runs claims over the domain pool, deterministic
    order, measured stats attached to each verdict. *)

type outcome = { claim : Claim.t; verdict : Verdict.t }

(** Run one claim on the calling domain: resets the domain-local
    {!Relax_core.Language.Stats} counters, times the thunk, converts a
    raised exception into an [Error] verdict, and attaches the stats.
    When an ambient tracer is active the claim runs inside a
    [claim/<id>] span carrying its memo/product stats. *)
val run_claim : Claim.t -> outcome

(** Run every claim of the registry, one pool task per claim; results
    come back grouped, in registry order, whatever the job count. *)
val run :
  ?jobs:int -> Registry.t -> (Registry.group * outcome list) list

(** [true] iff every verdict passed. *)
val ok : (Registry.group * outcome list) list -> bool

(** Append one [Complete] trace event per outcome (registry order) to
    the tracer: span name [claim/<id>], duration the measured wall
    clock, memo/product stats as attributes.  The profiling export for
    parallel runs, where ambient per-domain tracing would record a
    nondeterministic partial view. *)
val record_trace :
  Relax_obs.Tracer.t -> (Registry.group * outcome list) list -> unit
