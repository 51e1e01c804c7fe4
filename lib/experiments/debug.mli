(** The time-travel debugger over recorded chaos runs.

    Replay is deterministic, so a recorded run is just its fault trace:
    re-running it under a private tracer regenerates every event, which
    is folded into a timeline of semantic steps (faults, mode switches,
    operation starts/completions, journal recoveries, the verdict).
    Each step snapshots the run's state after it — the controller mode,
    the exact set of physical message copies still in flight, and the
    history prefix consumed so far — and the online oracle's automaton
    frontier is precomputed for {e every} prefix, so stepping backwards
    is the same O(1) lookup as stepping forwards. *)

open Relax_core
module Chaos = Relax_chaos

(** One physical message copy in flight (identity assigned at send time
    by {!Relax_sim.Network}). *)
type copy = { src : int; dst : int; seq : int }

val copy_to_string : copy -> string

type step = {
  index : int;
  time : float;  (** engine virtual time of the underlying event *)
  what : string;  (** rendered description *)
  hist : int;  (** history prefix consumed after this step *)
  pending : copy list;  (** copies in flight after this step, sorted *)
  degraded : bool;  (** controller mode after this step *)
}

type session = {
  trace : Chaos.Trace.t;
  result : Chaos.Runner.result;
  automaton : string;
  ops : Op.t array;  (** the judged history, indexable by prefix length *)
  steps : step array;
  frontiers : string list array;
      (** [frontiers.(k)] is the oracle frontier after [k] operations;
          empty means the prefix is rejected *)
}

(** Replay the trace under a private tracer and build the timeline.
    [Error] on an unknown lattice point. *)
val session_of_trace : Chaos.Trace.t -> (session, string) result

(** Recordings: a single-file checksummed journal whose first record is
    the serialized fault trace — a torn or corrupted recording fails on
    the CRC instead of replaying the wrong run. *)

val save_recording : string -> Chaos.Trace.t -> unit
val load_recording : string -> (Chaos.Trace.t, string) result

(** Does the file start with the journal magic (i.e. is it a recording
    rather than a bare s-expression trace)? *)
val is_recording : string -> bool

(** Run a command script against the session, echoing each command as a
    [rlx-debug>] prompt line — the transcript reads like an interactive
    session and is byte-deterministic for a deterministic trace. *)
val run_script : Format.formatter -> session -> string -> unit

(** The interactive loop on stdin. *)
val run_interactive : Format.formatter -> session -> unit
