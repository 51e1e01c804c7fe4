(* The claim engine: schedules claims over the domain pool and attaches
   measured stats to their verdicts.

   Claims are flattened in registry order and fanned out one task per
   claim; [Relax_parallel.Pool.map] returns results in input order, so
   reporting is deterministic at any degree of parallelism.  Around each
   thunk the engine resets the domain-local {!Relax_core.Language.Stats}
   counters and snapshots them afterwards together with the wall clock —
   a thunk runs entirely on one domain (nested pool calls degrade to
   sequential), so the counters observe exactly that claim's work. *)

open Relax_core

type outcome = { claim : Claim.t; verdict : Verdict.t }

module A = Relax_obs.Tracer.Ambient
module At = Relax_obs.Attr

let stat_attrs (v : Verdict.t) =
  [
    At.str "status" (Verdict.status_to_string v.Verdict.status);
    At.int "histories" v.Verdict.stats.Verdict.histories;
    At.int "visited" v.Verdict.stats.Verdict.visited;
    At.int "memo_hits" v.Verdict.stats.Verdict.memo_hits;
  ]
  @
  (* only claims routed through the proof pipeline carry a method; the
     attribute set of legacy claims — and their golden traces — is
     unchanged *)
  match v.Verdict.proof_method with
  | None -> []
  | Some m ->
    [
      At.str "method" (Verdict.proof_method_to_string m);
      At.int "obligations" v.Verdict.stats.Verdict.obligations;
      At.int "relation" v.Verdict.stats.Verdict.relation;
    ]

let measure (claim : Claim.t) =
  Language.Stats.reset ();
  let t0 = Unix.gettimeofday () in
  let verdict =
    match claim.check () with
    | v -> v
    | exception e ->
      let msg = Printexc.to_string e in
      Verdict.error ~detail:msg msg
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let s = Language.Stats.read () in
  {
    claim;
    verdict =
      Verdict.with_stats verdict
        {
          Verdict.histories = s.Language.Stats.histories;
          visited = s.Language.Stats.visited;
          memo_hits = s.Language.Stats.memo_hits;
          obligations = s.Language.Stats.obligations;
          relation = s.Language.Stats.relation;
          wall_s;
        };
  }

(* Under an active ambient tracer the claim runs inside a span carrying
   its memo/product stats — deliberately NOT the wall clock: traces of
   deterministic runs must be byte-identical, and wall time is the one
   nondeterministic stat.  Inside {!run}'s fan-out no tracer is active. *)
let run_claim claim =
  if not (A.active ()) then measure claim
  else begin
    A.begin_span ("claim/" ^ claim.Claim.id);
    let o = measure claim in
    List.iter A.set_attr (stat_attrs o.verdict);
    A.end_span ();
    o
  end

(* Synthesize one Complete trace event per outcome, in registry order.
   Used after a parallel run, where per-domain ambient tracing would
   record a nondeterministic partial view; here [dur] is the measured
   wall clock, so these traces are for profiling, not for goldens. *)
let record_trace tracer results =
  List.iter
    (fun ((_ : Registry.group), outcomes) ->
      List.iter
        (fun o ->
          Relax_obs.Tracer.complete tracer
            ~dur:(o.verdict.Verdict.stats.Verdict.wall_s *. 1000.0)
            ~attrs:(stat_attrs o.verdict)
            ("claim/" ^ o.claim.Claim.id))
        outcomes)
    results

let run ?jobs registry =
  let groups = Registry.groups registry in
  let claims = List.concat_map (fun (g : Registry.group) -> g.claims) groups in
  (* The fan-out never emits ambient events, even at [jobs = 1] where the
     pool degrades to a sequential map on this very domain: a parallel
     run records through {!record_trace}, identically at any job count. *)
  let outcomes =
    A.without (fun () -> Relax_parallel.Pool.map ?jobs run_claim claims)
  in
  (* stitch the flat outcome list back into registry groups *)
  let rec regroup groups outcomes =
    match groups with
    | [] -> []
    | (g : Registry.group) :: rest ->
      let n = List.length g.claims in
      let mine = List.filteri (fun i _ -> i < n) outcomes in
      let others = List.filteri (fun i _ -> i >= n) outcomes in
      (g, mine) :: regroup rest others
  in
  regroup groups outcomes

let ok results =
  List.for_all
    (fun (_, outcomes) -> List.for_all (fun o -> Verdict.ok o.verdict) outcomes)
    results
