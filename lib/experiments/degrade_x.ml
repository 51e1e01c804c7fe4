module Chaos = Relax_chaos
module Degrade = Relax_degrade

(* Experiment X-degrade: the live degradation controller vs static
   lattice points, under identical fault schedules.

   Each seeded comparison runs the same workload and the same nemesis
   schedule three times: once with the controller moving the system
   between the preferred and degraded points (the "adaptive" chaos
   scenario), once pinned at static top, once pinned at static bottom.
   The schedule stream is derived from the run seed alone, so all three
   runs face byte-identical fault timing — the availability difference
   is the controller's doing, not the weather's.

   What the experiment claims:

   - conformance: every controlled history is accepted by the online
     oracle over the Section 2.3 combined automaton;
   - availability: under the partition nemesis the controlled runs
     complete strictly more operations than static top (which stalls on
     the minority side) while never leaving the predicted language —
     the graceful-degradation dividend;
   - hysteresis: the controller's dwell-time debounce bounds the number
     of mode switches per run (no flapping). *)

type comparison = {
  seed : int;
  controlled : Chaos.Runner.result;
  static_top : Chaos.Runner.result;
  static_bottom : Chaos.Runner.result;
}

(* Completed fraction of the operations that wanted service (empty views
   are successful reads of an empty queue, not failures). *)
let availability (r : Chaos.Runner.result) =
  let attempted = r.completed + r.unavailable in
  if attempted = 0 then 1.0
  else float_of_int r.completed /. float_of_int attempted

(* The hysteresis bound: one initial degrade plus one degrade/restore
   pair per dwell window of the run. *)
let switch_bound ~(config : Chaos.Runner.config) controller_config =
  let dwell = controller_config.Degrade.Controller.min_dwell in
  1 + int_of_float (2.0 *. Chaos.Runner.horizon config /. dwell)

let run_one ?(config = Chaos.Runner.default_config) ~nemeses seed =
  let config = { config with Chaos.Runner.seed } in
  let run point =
    match Chaos_scenarios.make_trace ~point ~nemeses ~config with
    | Error e -> Error e
    | Ok trace -> (
      Chaos_scenarios.run_trace trace)
  in
  match (run "adaptive", run "top", run "bottom") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok controlled, Ok static_top, Ok static_bottom ->
    Ok { seed; controlled; static_top; static_bottom }

type sweep_report = {
  comparisons : comparison list;
  violations : int;
  switch_limit : int;
  max_switches : int;
}

let sweep ?jobs ?(config = Chaos.Runner.default_config)
    ?(controller = Degrade.Controller.default_config) ~runs ~seed ~nemeses () =
  if runs <= 0 then Error "degrade sweep: runs must be positive"
  else
    match Chaos.Nemesis.of_names nemeses with
    | Error e -> Error e
    | Ok _ ->
      let specs = List.init runs (fun i -> seed + i) in
      let results =
        Relax_parallel.Pool.map ?jobs
          (fun s ->
            match run_one ~config ~nemeses s with
            | Error e -> failwith e (* nemeses validated above *)
            | Ok c -> c)
          specs
      in
      let violations =
        List.length
          (List.filter
             (fun c -> Option.is_some c.controlled.Chaos.Runner.violation)
             results)
      and max_switches =
        List.fold_left
          (fun acc c -> max acc c.controlled.Chaos.Runner.mode_switches)
          0 results
      in
      Ok
        {
          comparisons = results;
          violations;
          switch_limit = switch_bound ~config controller;
          max_switches;
        }

(* ------------------------------------------------------------------ *)
(* Quantiles over transition latencies (for the bench rows)            *)
(* ------------------------------------------------------------------ *)

let quantile q samples =
  match List.sort compare samples with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    let idx =
      min (n - 1) (int_of_float (Float.of_int (n - 1) *. q +. 0.5))
    in
    List.nth sorted idx

let restore_times report =
  List.concat_map
    (fun c -> c.controlled.Chaos.Runner.time_to_restore)
    report.comparisons

let degrade_times report =
  List.concat_map
    (fun c -> c.controlled.Chaos.Runner.time_to_degrade)
    report.comparisons

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let mean f xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

let pp_summary ppf report =
  let cs = report.comparisons in
  let avail get = 100.0 *. mean (fun c -> availability (get c)) cs in
  Fmt.pf ppf
    "%-12s availability %5.1f%%  completed %4d  unavailable %3d  switches %d@\n"
    "controlled"
    (avail (fun c -> c.controlled))
    (List.fold_left (fun a c -> a + c.controlled.Chaos.Runner.completed) 0 cs)
    (List.fold_left (fun a c -> a + c.controlled.Chaos.Runner.unavailable) 0 cs)
    (List.fold_left (fun a c -> a + c.controlled.Chaos.Runner.mode_switches) 0 cs);
  List.iter
    (fun (label, get) ->
      Fmt.pf ppf
        "%-12s availability %5.1f%%  completed %4d  unavailable %3d@\n" label
        (avail get)
        (List.fold_left (fun a c -> a + (get c).Chaos.Runner.completed) 0 cs)
        (List.fold_left (fun a c -> a + (get c).Chaos.Runner.unavailable) 0 cs))
    [
      ("static top", fun c -> c.static_top);
      ("static bottom", fun c -> c.static_bottom);
    ];
  Fmt.pf ppf
    "uplift vs static top: %+.1f%% availability; conformance violations %d@\n"
    (100.0
    *. (mean (fun c -> availability c.controlled) cs
       -. mean (fun c -> availability c.static_top) cs))
    report.violations;
  Fmt.pf ppf "mode switches: max %d per run (hysteresis bound %d)@\n"
    report.max_switches report.switch_limit;
  (match (restore_times report, degrade_times report) with
  | [], _ | _, [] -> ()
  | rts, dts ->
    Fmt.pf ppf
      "time-to-degrade p50 %.1f p99 %.1f; time-to-restore p50 %.1f p99 %.1f@\n"
      (quantile 0.5 dts) (quantile 0.99 dts) (quantile 0.5 rts)
      (quantile 0.99 rts))

(* The mode-switch timeline, one line per transition: the artifact the
   CI sweep uploads. *)
let pp_timeline ppf report =
  List.iter
    (fun c ->
      List.iter
        (fun tr ->
          Fmt.pf ppf "seed=%d at=%.1f %s cause=%S@\n" c.seed
            tr.Degrade.Controller.at
            (if tr.Degrade.Controller.to_degraded then "DEGRADE" else "RESTORE")
            tr.Degrade.Controller.cause)
        c.controlled.Chaos.Runner.transitions)
    report.comparisons

(* ------------------------------------------------------------------ *)
(* Claims                                                              *)
(* ------------------------------------------------------------------ *)

let claim_runs = 8
let claim_seed = 42

let with_sweep ~nemeses ppf k =
  match sweep ~runs:claim_runs ~seed:claim_seed ~nemeses () with
  | Error e ->
    Fmt.pf ppf "sweep failed: %s@\n" e;
    false
  | Ok report ->
    pp_summary ppf report;
    k report

let claims () =
  [
    Relax_claims.Claim.report ~id:"degrade/conformance" ~kind:Characterization
      ~paper:"Section 2.3 (combined automaton, live)"
      ~description:
        "every controller-driven history is accepted by the combined \
         automaton"
      ~detail:
        (Fmt.str "%d seeded runs, nemeses %s" claim_runs
           (String.concat "/" Chaos_scenarios.default_nemeses))
      (fun ppf ->
        with_sweep ~nemeses:Chaos_scenarios.default_nemeses ppf (fun report ->
            report.violations = 0))
    ;
    Relax_claims.Claim.report ~id:"degrade/availability" ~kind:Numeric
      ~paper:"Section 1 (graceful degradation)"
      ~description:
        "under the partition nemesis the controller completes more \
         operations than static preferred while staying in the predicted \
         language"
      ~detail:(Fmt.str "%d seeded runs, partition nemesis" claim_runs)
      (fun ppf ->
        with_sweep ~nemeses:[ "partition" ] ppf (fun report ->
            let controlled =
              List.fold_left
                (fun a c -> a + c.controlled.Chaos.Runner.completed)
                0 report.comparisons
            and top =
              List.fold_left
                (fun a c -> a + c.static_top.Chaos.Runner.completed)
                0 report.comparisons
            in
            controlled > top && report.violations = 0))
    ;
    Relax_claims.Claim.report ~id:"degrade/hysteresis" ~kind:Characterization
      ~paper:"beyond the paper (controller design)"
      ~description:
        "the dwell-time debounce bounds mode switches per run: no flapping \
         under any standard nemesis"
      ~detail:
        (Fmt.str "%d seeded runs, nemeses %s" claim_runs
           (String.concat "/" Chaos_scenarios.default_nemeses))
      (fun ppf ->
        with_sweep ~nemeses:Chaos_scenarios.default_nemeses ppf (fun report ->
            report.max_switches <= report.switch_limit));
  ]

let group () =
  {
    Relax_claims.Registry.gid = "degrade";
    title = "X-degrade: the live degradation controller";
    header = "== X-degrade: online monitors, hysteresis, self-healing ==\n";
    claims = claims ();
  }
