(* rlx — the relaxation-lattice toolkit command line.

   Every experiment of EXPERIMENTS.md is reachable from here:

     rlx check [all]      run every registered claim (default)
     rlx check <group>    one claim group (pq, collapses, account, prob,
                          fig42, availability, taxi, chaos, degrade, atm,
                          spooler, markov, fifo)
     rlx check list       list every claim id in the registry
     rlx check --only 'pq/*'         select claims by id glob
     rlx check all --format json     machine-readable verdicts (or tap)
     rlx figure 4-2       regenerate Figure 4-2
     rlx figure 5-1       regenerate Figure 5-1 with measured costs
     rlx simulate taxi    the taxi-dispatch case study
     rlx simulate atm     the bank-account case study
     rlx simulate spooler the print-spooler case study
     rlx simulate ... --seed S   reseed any simulation's fault trace
     rlx chaos run --runs N --seed S --nemesis LIST
                          searched lattice conformance under composed
                          fault injection; violations shrink to minimal
                          replayable traces
     rlx chaos replay FILE  deterministically replay a recorded trace
     rlx chaos list       the known lattice points and nemeses
     rlx ldfi run         lineage-driven fault injection: exhaustive
                          fault coverage within a failure budget, or a
                          shrunken counterexample
     rlx ldfi hunt        guided vs random executions-to-violation on
                          the planted volatile-logs bug
     rlx ldfi report FILE re-render a recorded coverage document
     rlx degrade run      one controller-vs-static comparison with the
                          mode-switch timeline
     rlx degrade sweep    seeded degradation sweeps: availability uplift
                          vs static points, online conformance, bounded
                          switching
     rlx simulate taxi --timeout 80 --retries 3 --backoff 4
                          override the client knobs of any simulation
     rlx compare PQ MPQ   Section 5's comparison of specifications
     rlx trait ...        inspect/normalize the standard traits
     rlx ... --trace-out FILE
                          trace a simulate/check/chaos/degrade run:
                          Chrome trace_event JSON (Perfetto), JSON lines
                          for .jsonl, the aggregated span table for .txt
     rlx chaos run --runs 1 --points top --seed S --trace-out t.json
                          trace one chaos run at a lattice point
     rlx check all --only 'pq/*' --format json --trace-out t.json
                          per-claim wall clock + checker stats as JSON
*)

open Cmdliner

let out = Fmt.stdout

let exit_of b = if b then 0 else 1

let apply_jobs jobs = Option.iter Relax_parallel.Pool.set_default_jobs jobs

(* --- tracing -------------------------------------------------------- *)

(* The export format is picked by extension: .jsonl gives line-diffable
   JSON lines (the golden-trace format), .txt the aggregated span table,
   anything else the Chrome trace_event JSON that Perfetto and
   chrome://tracing load. *)
let trace_format_of_path path =
  if Filename.check_suffix path ".jsonl" then Relax_obs.Export.Jsonl
  else if Filename.check_suffix path ".txt" then Relax_obs.Export.Table
  else Relax_obs.Export.Chrome

(* The note goes to stderr so stdout stays clean for --format json etc. *)
let write_trace path tracer =
  Relax_obs.Export.write_file path (trace_format_of_path path)
    (Relax_obs.Tracer.events tracer);
  Fmt.epr "trace: %d events written to %s@."
    (Relax_obs.Tracer.event_count tracer)
    path

(* Run [f] with an ambient tracer installed when --trace-out was given. *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
    let tracer = Relax_obs.Tracer.create () in
    let code = Relax_obs.Tracer.Ambient.with_tracer tracer f in
    write_trace path tracer;
    code

(* The check command is entirely registry-driven: group dispatch, the
   unknown-check hint and the listing all derive from the claim catalog,
   so a new group registers itself everywhere at once.  Claims are fanned
   out over domains by the engine and rendered by the selected reporter;
   the output is identical at any degree of parallelism. *)
(* Group/glob selection: a claim group (or all), narrowed by --only. *)
let select_registry what only depth strategy =
  let module R = Relax_claims.Registry in
  let registry = Relax_experiments.Catalog.registry ~depth ~strategy () in
  let known = R.group_ids registry in
  if what <> "all" && not (List.mem what known) then
    Error
      (Fmt.str "unknown check %S (expected %s | all | list)" what
         (String.concat " | " known))
  else
    let selected =
      let by_group =
        if what = "all" then registry
        else R.select registry ~pattern:(what ^ "/*")
      in
      match only with
      | None -> by_group
      | Some pattern -> R.select by_group ~pattern
    in
    if R.all_claims selected = [] then
      Error
        (match only with
        | Some pattern ->
          Fmt.str "no claims match --only %S (see 'rlx check list')" pattern
        | None -> "no claims selected")
    else Ok selected

let run_check what only format depth strategy jobs trace_out =
  apply_jobs jobs;
  let module R = Relax_claims.Registry in
  let module C = Relax_claims.Claim in
  if what = "list" then begin
    let registry = Relax_experiments.Catalog.registry ~depth ~strategy () in
    List.iter
      (fun (g : R.group) ->
        Fmt.pr "%s — %s@." g.R.gid g.R.title;
        List.iter
          (fun (c : C.t) ->
            Fmt.pr "  %-32s %-17s %s  [%s]@." c.C.id
              (C.kind_to_string c.C.kind)
              c.C.description c.C.paper)
          g.R.claims)
      (R.groups registry);
    0
  end
  else
    match select_registry what only depth strategy with
    | Error e ->
      Fmt.epr "%s@." e;
      2
    | Ok selected ->
      let results = Relax_claims.Engine.run selected in
      (* claims fan out over domains, so the trace is synthesized from
         the measured outcomes rather than recorded ambiently *)
      (match trace_out with
      | None -> ()
      | Some path ->
        let tracer = Relax_obs.Tracer.create () in
        Relax_claims.Engine.record_trace tracer results;
        write_trace path tracer);
      Relax_claims.Reporter.pp format out results;
      exit_of (Relax_claims.Engine.ok results)

(* Run one claim group on the calling domain — so the ambient tracer of
   --trace-out sees every claim span — and print it as `rlx check` does. *)
let run_group (g : Relax_claims.Registry.group) =
  let results = [ (g, List.map Relax_claims.Engine.run_claim g.claims) ] in
  Relax_claims.Reporter.pp Relax_claims.Reporter.Human out results;
  exit_of (Relax_claims.Engine.ok results)

(* The trait/interface figures print their checked sources; 4-2 and 5-1
   are regenerated from the lattice machinery and the case studies. *)
let run_figure which =
  let show_trait src =
    Fmt.pr "%a@." Relax_larch.Printer.pp_trait
      (Relax_larch.Parser.trait_of_string src);
    0
  in
  let show_iface src =
    Fmt.pr "%a@." Relax_larch.Printer.pp_iface
      (Relax_larch.Parser.iface_of_string src);
    0
  in
  match which with
  | "2-1" -> show_trait Relax_larch.Theories.bag_src
  | "2-2" -> show_iface Relax_larch.Theories.bag_iface_src
  | "2-3" -> show_trait Relax_larch.Theories.fifoq_src
  | "2-4" -> show_iface Relax_larch.Theories.fifo_iface_src
  | "3-1" -> show_trait Relax_larch.Theories.pqueue_src
  | "3-2" -> show_iface Relax_larch.Theories.pqueue_iface_src
  | "3-3" -> show_iface Relax_larch.Theories.mpq_iface_src
  | "3-4" -> show_iface Relax_larch.Theories.bag_iface_src
  | "3-5" -> show_iface Relax_larch.Theories.degen_iface_src
  | "4-1" -> show_iface (Relax_larch.Theories.semiqueue_iface_src ~k:2)
  | "4-3" -> show_iface (Relax_larch.Theories.stuttering_iface_src ~j:2)
  | "4-2" -> run_group (Relax_experiments.Fig42.group ())
  | "5-1" -> exit_of (Relax_experiments.Fig51.run out ())
  | other ->
    Fmt.epr
      "unknown figure %S (expected 2-1..2-4 | 3-1..3-5 | 4-1..4-3 | 5-1)@."
      other;
    2

(* Every simulation accepts --seed: the experiments default to their
   historical seeds, so a bare `rlx simulate X` is byte-stable, while
   --seed reseeds the whole fault trace (the spooler sweeps a window of
   consecutive seeds starting at the given one). *)
let run_simulate which seed timeout retries backoff trace_out =
  with_trace trace_out @@ fun () ->
  match which with
  | "taxi" ->
    let params =
      Option.map
        (fun seed -> { Relax_experiments.Taxi.default_params with seed })
        seed
    in
    run_group
      (Relax_experiments.Taxi.group ?params ?timeout ?retries ?backoff ())
  | "atm" ->
    let params =
      Option.map
        (fun seed -> { Relax_experiments.Atm.default_params with seed })
        seed
    in
    run_group
      (Relax_experiments.Atm.group ?params ?timeout ?retries ?backoff ())
  | "spooler" ->
    if timeout <> None || retries <> None || backoff <> None then
      Fmt.epr
        "note: --timeout/--retries/--backoff do not apply to the spooler \
         (no replica client)@.";
    let seeds = Option.map (fun s -> List.init 3 (fun i -> s + i)) seed in
    run_group (Relax_experiments.Spooler.group ?seeds ())
  | other ->
    Fmt.epr "unknown simulation %S (expected taxi | atm | spooler)@." other;
    2

let depth_arg =
  let doc =
    "Exploration depth for the bounded-enumeration fallback of language \
     checks (and the default enqueue budget of simulation proofs).  \
     Claims proved by a certified simulation hold at any depth; $(opt) \
     only bounds the claims that fall back to enumeration."
  in
  Arg.(value & opt int 7 & info [ "depth"; "d" ] ~doc)

let method_arg =
  let doc =
    "Proof method for language claims: $(b,auto) (default — synthesize a \
     forward-simulation proof, fall back to bounded enumeration), \
     $(b,sim) (same pipeline, insisting on simulation; fallbacks are \
     visible as bounded verdicts) or $(b,enum) (bounded enumeration \
     only, the legacy checkers)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", Relax_proof.Strategy.Auto);
             ("sim", Relax_proof.Strategy.Simulation);
             ("enum", Relax_proof.Strategy.Bounded_enum);
           ])
        Relax_proof.Strategy.Auto
    & info [ "method"; "m" ] ~docv:"METHOD" ~doc)

let jobs_arg =
  let doc =
    "Number of domains for parallel fan-out (default: $(b,RLX_JOBS) or the \
     recommended domain count)."
  in
  let positive =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 1 -> Ok n
      | Ok _ -> Error (`Msg "expected a positive number of jobs")
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(value & opt (some positive) None & info [ "jobs"; "j" ] ~doc ~docv:"N")

let what_arg ~doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WHAT" ~doc)

let trace_out_arg =
  let doc =
    "Write a trace of the run to $(docv): Chrome trace_event JSON \
     (loadable in Perfetto or chrome://tracing), JSON lines when $(docv) \
     ends in $(b,.jsonl), or the aggregated span table when it ends in \
     $(b,.txt)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let check_cmd =
  let doc = "Run the registered claim checks." in
  let what =
    let doc =
      "What to check: a claim group (pq | collapses | account | prob | \
       fig42 | availability | taxi | chaos | degrade | atm | spooler | \
       markov | fifo), $(b,all) (the default), or $(b,list) to list every \
       claim id."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"WHAT" ~doc)
  in
  let only =
    let doc =
      "Only run claims whose id matches $(docv) ($(b,*) matches any \
       substring), e.g. $(b,--only 'pq/*') or $(b,--only '*/monotone')."
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"GLOB" ~doc)
  in
  let format =
    let doc =
      "Output format: $(b,human) (one line per claim, or its table), \
       $(b,json) (one document with per-claim status, counterexample and \
       checker stats) or $(b,tap) (TAP v14)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("human", Relax_claims.Reporter.Human);
               ("json", Relax_claims.Reporter.Json);
               ("tap", Relax_claims.Reporter.Tap);
             ])
          Relax_claims.Reporter.Human
      & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)
  in
  let exits =
    Cmd.Exit.info ~doc:"every selected claim passed." 0
    :: Cmd.Exit.info ~doc:"at least one claim failed or raised." 1
    :: Cmd.Exit.info
         ~doc:
           "usage error: unknown check group, or an $(b,--only) glob \
            matching no claim."
         2
    :: List.filter (fun i -> Cmd.Exit.info_code i > 2) Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "check" ~doc ~exits)
    Term.(
      const run_check $ what $ only $ format $ depth_arg $ method_arg
      $ jobs_arg $ trace_out_arg)

let figure_cmd =
  let doc =
    "Regenerate a figure of the paper (2-1..2-4 | 3-1..3-5 | 4-1..4-3 | 5-1)."
  in
  Cmd.v (Cmd.info "figure" ~doc) Term.(const run_figure $ what_arg ~doc)

let seed_arg =
  let doc =
    "Seed for the simulation's random streams (fault trace, workload, \
     latencies).  Defaults to the experiment's historical seed, so runs \
     without $(opt) are byte-stable."
  in
  Arg.(value & opt (some int) None & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

(* The replica client's knobs, exposed uniformly on `rlx simulate` and
   `rlx chaos run`/`rlx degrade`.  Left unset they keep each
   experiment's historical values, so default runs stay byte-stable. *)
let timeout_arg =
  let doc =
    "Per-attempt quorum timeout, in engine time units.  Defaults to the \
     experiment's historical value."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"TIME" ~doc)

let retries_arg =
  let doc =
    "Retry budget per operation (attempts after the first).  Defaults to \
     the replica runtime's value."
  in
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)

let backoff_arg =
  let doc =
    "Base retry backoff in engine time units, doubled on each further \
     attempt and jittered deterministically per seed.  Defaults to the \
     replica runtime's value."
  in
  Arg.(value & opt (some float) None & info [ "backoff" ] ~docv:"TIME" ~doc)

let simulate_cmd =
  let doc =
    "Run a case-study simulation (taxi | atm | spooler)."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run_simulate $ what_arg ~doc $ seed_arg $ timeout_arg
      $ retries_arg $ backoff_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* rlx chaos                                                           *)
(* ------------------------------------------------------------------ *)

let module_sep_list = Arg.list Arg.string

(* One Runner.config with the CLI's client knobs folded over the
   defaults (unset flags keep the historical values). *)
let chaos_config ?timeout ?retries ?backoff () =
  let d = Relax_chaos.Runner.default_config in
  {
    d with
    Relax_chaos.Runner.timeout =
      Option.value timeout ~default:d.Relax_chaos.Runner.timeout;
    retries = Option.value retries ~default:d.Relax_chaos.Runner.retries;
    backoff = Option.value backoff ~default:d.Relax_chaos.Runner.backoff;
  }

let run_chaos_run runs seed nemeses points jobs no_shrink timeout retries
    backoff trace_prefix trace_out =
  apply_jobs jobs;
  let module X = Relax_experiments.Chaos_scenarios in
  let nemeses =
    if nemeses = [] then X.default_nemeses else nemeses
  in
  let points = if points = [] then X.names else points in
  let config = chaos_config ?timeout ?retries ?backoff () in
  with_trace trace_out @@ fun () ->
  match
    X.sweep ?jobs ~config ~shrink:(not no_shrink) ~runs ~seed ~nemeses ~points
      ()
  with
  | Error e ->
    Fmt.epr "%s@." e;
    2
  | Ok report ->
    Fmt.pr "== chaos: %d runs, seed %d, nemeses %s ==@\n" runs seed
      (String.concat "," nemeses);
    Fmt.pr "%a" X.pp_summary report;
    List.iter
      (fun (v : X.violation) ->
        let path = Fmt.str "%s-%d.trace" trace_prefix v.report.X.index in
        Relax_chaos.Trace.save path v.shrunk;
        Fmt.pr "shrunken trace written to %s (replay with 'rlx chaos replay \
                %s')@\n"
          path path)
      report.X.violations;
    Fmt.pr "conformance: %d/%d runs in their predicted language@."
      (List.length report.X.reports - List.length report.X.violations)
      (List.length report.X.reports);
    exit_of (report.X.violations = [])

let run_chaos_replay file verbose trace_out =
  let module X = Relax_experiments.Chaos_scenarios in
  with_trace trace_out @@ fun () ->
  match Relax_chaos.Trace.load file with
  | exception Sys_error e ->
    Fmt.epr "cannot read trace: %s@." e;
    2
  | exception Relax_chaos.Sexp.Parse_error e ->
    Fmt.epr "malformed trace %s: %s@." file e;
    2
  | trace -> (
    match X.run_trace trace with
    | Error e ->
      Fmt.epr "%s@." e;
      2
    | Ok result ->
      if verbose then Fmt.pr "%a@\n" Relax_chaos.Trace.pp trace;
      Fmt.pr "point %s, seed %d: %d completed, %d unavailable, %d retries, \
              %d mode switches@\n"
        trace.Relax_chaos.Trace.point
        trace.Relax_chaos.Trace.config.Relax_chaos.Runner.seed result.Relax_chaos.Runner.completed
        result.Relax_chaos.Runner.unavailable
        result.Relax_chaos.Runner.retries_used
        result.Relax_chaos.Runner.mode_switches;
      Fmt.pr "digest: %s@\n" (Digest.to_hex (Digest.string result.Relax_chaos.Runner.digest));
      Fmt.pr "%a@." Relax_chaos.Runner.pp_verdict result;
      exit_of (Option.is_none result.Relax_chaos.Runner.violation))

let run_chaos_list () =
  let module X = Relax_experiments.Chaos_scenarios in
  Fmt.pr "lattice points:@\n";
  List.iter
    (fun (s : X.scenario) -> Fmt.pr "  %-10s %s@\n" s.X.name s.X.description)
    X.all;
  Fmt.pr "nemeses:@\n";
  List.iter
    (fun (name, descr) -> Fmt.pr "  %-10s %s@\n" name descr)
    Relax_chaos.Nemesis.known;
  Fmt.pr "default mix: %s@." (String.concat "," X.default_nemeses);
  0

let chaos_cmd =
  let runs_arg =
    let doc = "Number of seeded runs (run $(i,i) uses seed $(i,SEED+i))." in
    Arg.(value & opt int 50 & info [ "runs"; "n" ] ~docv:"N" ~doc)
  in
  let chaos_seed_arg =
    let doc = "Root seed of the sweep." in
    Arg.(
      value
      & opt int Relax_sim.Engine.default_seed
      & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
  in
  let nemesis_arg =
    let doc =
      "Comma-separated nemesis mix (crash | partition | drop | delay | dup \
       | skew | rejoin | amnesia; see $(b,rlx chaos list)).  Defaults to \
       every assumption-preserving nemesis — amnesia is opt-in because it \
       deliberately violates the stable-storage assumption and SHOULD \
       produce violations."
    in
    Arg.(value & opt module_sep_list [] & info [ "nemesis" ] ~docv:"LIST" ~doc)
  in
  let points_arg =
    let doc =
      "Comma-separated lattice points to cycle over (top | q1 | q2 | bottom \
       | adaptive).  Defaults to all."
    in
    Arg.(value & opt module_sep_list [] & info [ "points" ] ~docv:"LIST" ~doc)
  in
  let no_shrink_arg =
    let doc = "Report violations without shrinking them." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let trace_prefix_arg =
    let doc = "Filename prefix for shrunken violation traces." in
    Arg.(
      value & opt string "chaos-violation"
      & info [ "trace-prefix" ] ~docv:"PREFIX" ~doc)
  in
  let run_cmd =
    let doc =
      "Run seeded chaos sweeps: generate a nemesis fault schedule per run, \
       execute it on the replica runtime, and check every completed \
       history against its lattice point's predicted language.  Any \
       violation is shrunk to a 1-minimal replayable trace and saved."
    in
    Cmd.v (Cmd.info "run" ~doc)
      Term.(
        const run_chaos_run $ runs_arg $ chaos_seed_arg $ nemesis_arg
        $ points_arg $ jobs_arg $ no_shrink_arg $ timeout_arg $ retries_arg
        $ backoff_arg $ trace_prefix_arg $ trace_out_arg)
  in
  let replay_cmd =
    let doc =
      "Replay a recorded fault trace bit-for-bit and re-judge its history \
       against the conformance oracle."
    in
    let file_arg =
      Arg.(
        required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let verbose_arg =
      let doc = "Also print the trace's fault schedule." in
      Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
    in
    Cmd.v (Cmd.info "replay" ~doc)
      Term.(const run_chaos_replay $ file_arg $ verbose_arg $ trace_out_arg)
  in
  let list_cmd =
    let doc = "List the known lattice points and nemeses." in
    Cmd.v (Cmd.info "list" ~doc) Term.(const run_chaos_list $ const ())
  in
  let doc =
    "Deterministic chaos engine: composable fault injection with trace \
     record/replay, a lattice-conformance oracle, and counterexample \
     shrinking."
  in
  Cmd.group (Cmd.info "chaos" ~doc) [ run_cmd; replay_cmd; list_cmd ]

(* ------------------------------------------------------------------ *)
(* rlx debug                                                           *)
(* ------------------------------------------------------------------ *)

let run_debug file point seed nemeses script record_out =
  let module X = Relax_experiments.Chaos_scenarios in
  let module D = Relax_experiments.Debug in
  let trace =
    match file with
    | Some f ->
      if D.is_recording f then D.load_recording f
      else (
        match Relax_chaos.Trace.load f with
        | t -> Ok t
        | exception Sys_error e -> Error ("cannot read trace: " ^ e)
        | exception Relax_chaos.Sexp.Parse_error e ->
          Error (Fmt.str "malformed trace %s: %s" f e))
    | None ->
      let nemeses = if nemeses = [] then X.default_nemeses else nemeses in
      let config = { Relax_chaos.Runner.default_config with seed } in
      X.make_trace ~point ~nemeses ~config
  in
  match trace with
  | Error e ->
    Fmt.epr "%s@." e;
    2
  | Ok trace -> (
    Option.iter
      (fun path ->
        D.save_recording path trace;
        Fmt.pr "recording written to %s@." path)
      record_out;
    match D.session_of_trace trace with
    | Error e ->
      Fmt.epr "%s@." e;
      2
    | Ok session ->
      (match script with
      | Some s -> D.run_script Fmt.stdout session s
      | None -> D.run_interactive Fmt.stdout session);
      0)

let debug_cmd =
  let file_arg =
    let doc =
      "A recorded run to debug: either a checksummed recording written \
       with $(b,--record), or a bare $(b,.trace) file from $(b,rlx chaos \
       run).  When omitted, a run is generated from $(b,--point), \
       $(b,--seed) and $(b,--nemesis)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let point_arg =
    let doc = "Lattice point of the generated run (no $(i,FILE))." in
    Arg.(value & opt string "top" & info [ "point" ] ~docv:"POINT" ~doc)
  in
  let seed_arg =
    let doc = "Seed of the generated run (no $(i,FILE))." in
    Arg.(
      value
      & opt int Relax_sim.Engine.default_seed
      & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
  in
  let nemesis_arg =
    let doc = "Comma-separated nemesis mix of the generated run." in
    Arg.(value & opt module_sep_list [] & info [ "nemesis" ] ~docv:"LIST" ~doc)
  in
  let script_arg =
    let doc =
      "Read debugger commands from $(docv) instead of stdin, echoing each \
       as a prompt line — the transcript is byte-deterministic."
    in
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let record_arg =
    let doc =
      "Also write the run as a checksummed single-file recording to \
       $(docv) (replayable with $(b,rlx debug) $(docv))."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Time-travel through a recorded chaos run: step forwards and \
     backwards over faults, mode switches, completions and recoveries, \
     inspecting the oracle's automaton frontier and the message copies \
     in flight at any point."
  in
  Cmd.v (Cmd.info "debug" ~doc)
    Term.(
      const run_debug $ file_arg $ point_arg $ seed_arg $ nemesis_arg
      $ script_arg $ record_arg)

(* ------------------------------------------------------------------ *)
(* rlx degrade                                                         *)
(* ------------------------------------------------------------------ *)

(* Success means both of the controller's promises held: every controlled
   history in the predicted language, and switching bounded by the
   hysteresis dwell. *)
let degrade_ok (report : Relax_experiments.Degrade_x.sweep_report) =
  report.Relax_experiments.Degrade_x.violations = 0
  && report.Relax_experiments.Degrade_x.max_switches
     <= report.Relax_experiments.Degrade_x.switch_limit

let write_timeline path report =
  let oc = open_out path in
  output_string oc
    (Fmt.str "%a" Relax_experiments.Degrade_x.pp_timeline report);
  close_out oc;
  Fmt.epr "timeline: %d mode switches written to %s@."
    (List.fold_left
       (fun acc (c : Relax_experiments.Degrade_x.comparison) ->
         acc
         + List.length c.Relax_experiments.Degrade_x.controlled.Relax_chaos.Runner.transitions)
       0 report.Relax_experiments.Degrade_x.comparisons)
    path

let run_degrade_sweep ~print_timeline runs seed nemeses jobs timeout retries
    backoff timeline trace_out =
  apply_jobs jobs;
  let module D = Relax_experiments.Degrade_x in
  let module X = Relax_experiments.Chaos_scenarios in
  let nemeses = if nemeses = [] then X.default_nemeses else nemeses in
  let config = chaos_config ?timeout ?retries ?backoff () in
  with_trace trace_out @@ fun () ->
  match D.sweep ?jobs ~config ~runs ~seed ~nemeses () with
  | Error e ->
    Fmt.epr "%s@." e;
    2
  | Ok report ->
    Fmt.pr "== degrade: %d controlled-vs-static runs, seed %d, nemeses %s ==@\n"
      runs seed
      (String.concat "," nemeses);
    Fmt.pr "%a" D.pp_summary report;
    if print_timeline then begin
      Fmt.pr "mode-switch timeline:@\n";
      Fmt.pr "%a" D.pp_timeline report
    end;
    Option.iter (fun path -> write_timeline path report) timeline;
    exit_of (degrade_ok report)

let degrade_cmd =
  let nemesis_arg =
    let doc =
      "Comma-separated nemesis mix (crash | partition | drop | delay | dup \
       | skew | rejoin; see $(b,rlx chaos list)).  Defaults to every \
       assumption-preserving nemesis."
    in
    Arg.(value & opt module_sep_list [] & info [ "nemesis" ] ~docv:"LIST" ~doc)
  in
  let degrade_seed_arg =
    let doc = "Root seed (run $(i,i) uses seed $(i,SEED+i))." in
    Arg.(
      value
      & opt int Relax_sim.Engine.default_seed
      & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
  in
  let timeline_arg =
    let doc =
      "Write the mode-switch timeline (one line per transition: seed, \
       engine time, direction, cause) to $(docv) — the artifact the CI \
       sweep uploads."
    in
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE" ~doc)
  in
  let exits =
    Cmd.Exit.info
      ~doc:
        "zero conformance violations, and switching stayed within the \
         hysteresis bound."
      0
    :: Cmd.Exit.info ~doc:"at least one of those promises broke." 1
    :: List.filter (fun i -> Cmd.Exit.info_code i > 1) Cmd.Exit.defaults
  in
  let run_cmd =
    let doc =
      "One seeded comparison: the controller-driven client versus static \
       top and static bottom under an identical fault schedule, with the \
       availability uplift, conformance verdicts and the mode-switch \
       timeline."
    in
    Cmd.v (Cmd.info "run" ~doc ~exits)
      Term.(
        const (run_degrade_sweep ~print_timeline:true 1)
        $ degrade_seed_arg $ nemesis_arg $ jobs_arg $ timeout_arg
        $ retries_arg $ backoff_arg $ timeline_arg $ trace_out_arg)
  in
  let sweep_cmd =
    let runs_arg =
      let doc = "Number of seeded comparisons." in
      Arg.(value & opt int 100 & info [ "runs"; "n" ] ~docv:"N" ~doc)
    in
    let doc =
      "Seeded degradation sweeps: each run replays one fault schedule \
       against the live controller and against the static endpoints, \
       checking online conformance, the availability uplift and the \
       hysteresis switch bound."
    in
    Cmd.v (Cmd.info "sweep" ~doc ~exits)
      Term.(
        const (run_degrade_sweep ~print_timeline:false)
        $ runs_arg $ degrade_seed_arg $ nemesis_arg $ jobs_arg $ timeout_arg
        $ retries_arg $ backoff_arg $ timeline_arg $ trace_out_arg)
  in
  let doc =
    "The live degradation controller: online constraint monitors move the \
     replica along the relaxation lattice with hysteresis, every \
     transition is emitted into the history, and an incremental oracle \
     checks conformance as the history is produced."
  in
  Cmd.group (Cmd.info "degrade" ~doc) [ run_cmd; sweep_cmd ]

(* ------------------------------------------------------------------ *)
(* rlx ldfi                                                            *)
(* ------------------------------------------------------------------ *)

(* LDFI's workload is shorter than the sweep default (many executions
   per point), so the base config comes from Ldfi_x, with the same
   client knobs folded over it. *)
let ldfi_config ?(base = Relax_experiments.Ldfi_x.default_config) ?sites
    ?requests ?timeout ?retries ?backoff () =
  let d = base in
  {
    d with
    Relax_chaos.Runner.sites =
      Option.value sites ~default:d.Relax_chaos.Runner.sites;
    requests = Option.value requests ~default:d.Relax_chaos.Runner.requests;
    timeout = Option.value timeout ~default:d.Relax_chaos.Runner.timeout;
    retries = Option.value retries ~default:d.Relax_chaos.Runner.retries;
    backoff = Option.value backoff ~default:d.Relax_chaos.Runner.backoff;
  }

let save_ldfi_violation trace_prefix point (v : Relax_experiments.Ldfi_x.violation) =
  let path = Fmt.str "%s-%s.trace" trace_prefix point in
  Relax_chaos.Trace.save path v.Relax_experiments.Ldfi_x.shrunk;
  Fmt.pr "shrunken trace written to %s (replay with 'rlx chaos replay %s')@\n"
    path path

let ldfi_outcome_ok (o : Relax_experiments.Ldfi_x.outcome) =
  o.Relax_experiments.Ldfi_x.violation = None
  && (o.Relax_experiments.Ldfi_x.strategy <> "guided"
     || o.Relax_experiments.Ldfi_x.stats.Relax_ldfi.Search.exhausted)

let run_ldfi_run points jobs sites requests max_crashes max_drops
    max_injections wipe strategy seed format out_file trace_prefix timeout
    retries backoff =
  apply_jobs jobs;
  let module L = Relax_experiments.Ldfi_x in
  let module S = Relax_ldfi.Search in
  let module X = Relax_experiments.Chaos_scenarios in
  let points = if points = [] then X.names else points in
  let config = ldfi_config ?sites ?requests ?timeout ?retries ?backoff () in
  let budget = { S.max_crashes; max_drops; max_injections } in
  let strategy =
    match strategy with `Guided -> `Guided | `Random -> `Random seed
  in
  match L.run_points ?jobs ~config ~wipe ~budget ~strategy points with
  | Error e ->
    Fmt.epr "%s@." e;
    2
  | Ok outcomes ->
    (match format with
    | `Json -> Fmt.pr "%s@." (L.coverage_json ~budget ~wipe outcomes)
    | `Tap -> L.coverage_tap Fmt.stdout outcomes
    | `Human ->
      Fmt.pr
        "== ldfi: budget %d crash / %d drop (cap %d injections), %d sites, \
         %d requests, wipe %b ==@\n"
        max_crashes max_drops max_injections
        config.Relax_chaos.Runner.sites config.Relax_chaos.Runner.requests
        wipe;
      List.iter (fun o -> Fmt.pr "%a@\n" L.pp_outcome o) outcomes;
      List.iter
        (fun (o : L.outcome) ->
          Option.iter
            (save_ldfi_violation trace_prefix o.L.point)
            o.L.violation)
        outcomes;
      let exhausted = List.filter ldfi_outcome_ok outcomes in
      Fmt.pr "coverage: %d/%d points exhausted with 0 violations@."
        (List.length exhausted) (List.length outcomes));
    (match out_file with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (L.coverage_json ~budget ~wipe outcomes);
      output_char oc '\n';
      close_out oc;
      Fmt.epr "coverage document written to %s@." path);
    exit_of (List.for_all ldfi_outcome_ok outcomes)

let run_ldfi_hunt point sites requests max_crashes max_drops max_injections
    seed trace_prefix timeout retries backoff =
  let module L = Relax_experiments.Ldfi_x in
  let module S = Relax_ldfi.Search in
  let config =
    ldfi_config ~base:L.hunt_config ?sites ?requests ?timeout ?retries
      ?backoff ()
  in
  let budget = { S.max_crashes; max_drops; max_injections } in
  match L.hunt ~config ~budget ~random_seed:seed point with
  | Error e ->
    Fmt.epr "%s@." e;
    2
  | Ok r ->
    Fmt.pr
      "== ldfi hunt: planted volatile-logs bug at %s (every crash wipes the \
       site) ==@\n"
      point;
    Fmt.pr "%a@\n" L.pp_outcome r.L.guided;
    Fmt.pr "%a@\n" L.pp_outcome r.L.random;
    Option.iter (save_ldfi_violation trace_prefix point) r.L.guided.L.violation;
    let guided_execs = r.L.guided.L.stats.S.executions in
    (match (r.L.guided.L.violation, r.L.speedup) with
    | None, _ ->
      Fmt.pr "guided search found no violation — the bug escaped@."
    | Some _, Some x ->
      Fmt.pr
        "guided found it in %d executions, random in %d: %.1fx fewer@."
        guided_execs r.L.random.L.stats.S.executions x
    | Some _, None ->
      Fmt.pr
        "guided found it in %d executions; random found nothing within its \
         %d-execution cap (>= %.0fx fewer)@."
        guided_execs r.L.random_cap
        (float_of_int r.L.random_cap /. float_of_int (max guided_execs 1)));
    let ok =
      r.L.guided.L.violation <> None
      && match r.L.speedup with None -> true | Some x -> x >= 10.0
    in
    exit_of ok

let run_ldfi_report file =
  let module L = Relax_experiments.Ldfi_x in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e ->
    Fmt.epr "cannot read coverage document: %s@." e;
    2
  | doc -> (
    match L.read_coverage doc with
    | Error e ->
      Fmt.epr "malformed coverage document %s: %s@." file e;
      2
    | Ok r ->
      Fmt.pr "%a" L.pp_read_coverage r;
      exit_of (L.read_ok r))

let ldfi_cmd =
  let points_arg =
    let doc =
      "Comma-separated lattice points to search (top | q1 | q2 | bottom | \
       adaptive).  Defaults to all."
    in
    Arg.(value & opt module_sep_list [] & info [ "points" ] ~docv:"LIST" ~doc)
  in
  let sites_arg =
    let doc = "Replica sites." in
    Arg.(value & opt (some int) None & info [ "sites" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Client operations per run (the workload slots)." in
    Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N" ~doc)
  in
  let budget_args ~crashes ~drops ~injections =
    let crashes_arg =
      let doc = "Failure budget: crash-window variables per fault set." in
      Arg.(value & opt int crashes & info [ "max-crashes" ] ~docv:"N" ~doc)
    in
    let drops_arg =
      let doc = "Failure budget: omitted message copies per fault set." in
      Arg.(value & opt int drops & info [ "max-drops" ] ~docv:"N" ~doc)
    in
    let injections_arg =
      let doc = "Cap on injected runs before the search gives up." in
      Arg.(
        value & opt int injections & info [ "max-injections" ] ~docv:"N" ~doc)
    in
    (crashes_arg, drops_arg, injections_arg)
  in
  let trace_prefix_arg =
    let doc = "Filename prefix for shrunken violation traces." in
    Arg.(
      value & opt string "ldfi-violation"
      & info [ "trace-prefix" ] ~docv:"PREFIX" ~doc)
  in
  let run_cmd =
    let ci = Relax_ldfi.Search.ci_budget in
    let crashes_arg, drops_arg, injections_arg =
      budget_args ~crashes:ci.Relax_ldfi.Search.max_crashes
        ~drops:ci.Relax_ldfi.Search.max_drops
        ~injections:ci.Relax_ldfi.Search.max_injections
    in
    let wipe_arg =
      let doc =
        "Volatile-logs realization: every injected crash also wipes the \
         site's log, deliberately breaking the stable-storage assumption \
         (the planted bug `rlx ldfi hunt` searches for)."
      in
      Arg.(value & flag & info [ "wipe" ] ~doc)
    in
    let strategy_arg =
      let doc =
        "$(b,guided) (lineage-driven search, the default) or $(b,random) \
         (the seeded baseline: same fault space and budget, no lineage)."
      in
      Arg.(
        value
        & opt (enum [ ("guided", `Guided); ("random", `Random) ]) `Guided
        & info [ "strategy" ] ~docv:"STRATEGY" ~doc)
    in
    let ldfi_seed_arg =
      let doc = "Seed of the $(b,random) baseline's sampling stream." in
      Arg.(
        value
        & opt int Relax_sim.Engine.default_seed
        & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
    in
    let format_arg =
      let doc =
        "Output format: $(b,human), $(b,json) (the coverage document CI \
         diffs) or $(b,tap) (TAP v14, one test per point)."
      in
      Arg.(
        value
        & opt (enum [ ("human", `Human); ("json", `Json); ("tap", `Tap) ])
            `Human
        & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)
    in
    let out_arg =
      let doc =
        "Also write the JSON coverage document to $(docv) (the CI artifact), \
         whatever $(b,--format) prints."
      in
      Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
    in
    let exits =
      Cmd.Exit.info
        ~doc:
          "every searched point reached exhaustive fault coverage: all \
           candidate fault sets within the budget injected, 0 violations."
        0
      :: Cmd.Exit.info
           ~doc:"a violation was found, or the injection cap was hit." 1
      :: List.filter (fun i -> Cmd.Exit.info_code i > 1) Cmd.Exit.defaults
    in
    let doc =
      "Search the fault space instead of sampling it: extract the lineage \
       of a conforming run, solve for the minimal fault sets that could \
       break it, inject exactly those, and iterate to exhaustive coverage \
       or a shrunken counterexample."
    in
    Cmd.v (Cmd.info "run" ~doc ~exits)
      Term.(
        const run_ldfi_run $ points_arg $ jobs_arg $ sites_arg $ requests_arg
        $ crashes_arg $ drops_arg $ injections_arg $ wipe_arg $ strategy_arg
        $ ldfi_seed_arg $ format_arg $ out_arg $ trace_prefix_arg
        $ timeout_arg $ retries_arg $ backoff_arg)
  in
  let hunt_cmd =
    let hb = Relax_experiments.Ldfi_x.hunt_budget in
    let crashes_arg, drops_arg, injections_arg =
      budget_args ~crashes:hb.Relax_ldfi.Search.max_crashes
        ~drops:hb.Relax_ldfi.Search.max_drops
        ~injections:hb.Relax_ldfi.Search.max_injections
    in
    let point_arg =
      let doc = "Lattice point to hunt at (top | q1 | q2 | bottom)." in
      Arg.(value & pos 0 string "top" & info [] ~docv:"POINT" ~doc)
    in
    let hunt_seed_arg =
      let doc = "Seed of the random baseline." in
      Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
    in
    let exits =
      Cmd.Exit.info
        ~doc:
          "the guided search found a shrunken violating trace at least 10x \
           faster (executions to first violation) than the random baseline."
        0
      :: Cmd.Exit.info ~doc:"it did not." 1
      :: List.filter (fun i -> Cmd.Exit.info_code i > 1) Cmd.Exit.defaults
    in
    let doc =
      "Race guided against random on the planted volatile-logs bug: with \
       every crash wiping its site (breaking the stable-storage \
       assumption), compare executions-to-first-violation.  The baseline \
       gets ten times the guided execution count before giving up."
    in
    Cmd.v (Cmd.info "hunt" ~doc ~exits)
      Term.(
        const run_ldfi_hunt $ point_arg $ sites_arg $ requests_arg
        $ crashes_arg $ drops_arg $ injections_arg $ hunt_seed_arg
        $ trace_prefix_arg $ timeout_arg $ retries_arg $ backoff_arg)
  in
  let report_cmd =
    let file_arg =
      let doc = "A coverage document written by $(b,rlx ldfi run --out)." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let doc =
      "Render a recorded JSON coverage document and re-state its verdict \
       (exit 0 iff every point reached exhaustive coverage with 0 \
       violations)."
    in
    Cmd.v (Cmd.info "report" ~doc) Term.(const run_ldfi_report $ file_arg)
  in
  let doc =
    "Lineage-driven fault injection: turn the chaos oracle from sampled \
     into searched — per-point exhaustive fault coverage within a failure \
     budget, or a minimal counterexample."
  in
  Cmd.group (Cmd.info "ldfi" ~doc) [ run_cmd; hunt_cmd; report_cmd ]

(* rlx trait show Bag / rlx trait theory Bag / rlx trait normalize Bag "expr" *)
let run_trait action name expr =
  let std =
    [ "Bag"; "MBag"; "FifoQ"; "PQueue"; "MPQueue"; "SetE"; "SemiQ"; "StutQ";
      "DPQ"; "RFQ" ]
  in
  if not (List.mem name std) then begin
    Fmt.epr "unknown trait %S (expected one of %s)@." name
      (String.concat ", " std);
    2
  end
  else
    let source =
      match name with
      | "Bag" -> Relax_larch.Theories.bag_src
      | "MBag" -> Relax_larch.Theories.mbag_src
      | "FifoQ" -> Relax_larch.Theories.fifoq_src
      | "PQueue" -> Relax_larch.Theories.pqueue_src
      | "MPQueue" -> Relax_larch.Theories.mpqueue_src
      | "SetE" -> Relax_larch.Theories.set_src
      | "SemiQ" -> Relax_larch.Theories.semiq_src
      | "DPQ" -> Relax_larch.Theories.dpq_src
      | "RFQ" -> Relax_larch.Theories.rfq_src
      | _ -> Relax_larch.Theories.stutq_src
    in
    match action with
    | "show" ->
      Fmt.pr "%a@."
        Relax_larch.Printer.pp_trait
        (Relax_larch.Parser.trait_of_string source);
      0
    | "theory" ->
      Fmt.pr "%a@." Relax_larch.Printer.pp_theory
        (Relax_larch.Theories.find name);
      0
    | "normalize" -> (
      match expr with
      | None ->
        Fmt.epr "normalize needs an expression argument@.";
        2
      | Some src -> (
        try
          let t = Relax_larch.Parser.expr_of_string src in
          let theory = Relax_larch.Theories.find name in
          Fmt.pr "%a@." Relax_larch.Term.pp
            (Relax_larch.Trait.normalize theory t);
          0
        with
        | Relax_larch.Parser.Error e | Relax_larch.Lexer.Error e ->
          Fmt.epr "parse error: %s@." e;
          2
        | Relax_larch.Rewrite.Out_of_fuel ->
          Fmt.epr "normalization did not terminate within the fuel bound@.";
          2))
    | other ->
      Fmt.epr "unknown action %S (expected show | theory | normalize)@." other;
      2

let trait_cmd =
  let doc =
    "Inspect the standard traits: show the source, print the elaborated \
     theory, or normalize a ground expression."
  in
  let action_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION" ~doc)
  in
  let name_arg =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"TRAIT"
        ~doc:"Trait name (Bag, MBag, FifoQ, PQueue, MPQueue, SetE, SemiQ, StutQ, DPQ, RFQ).")
  in
  let expr_arg =
    Arg.(
      value & pos 2 (some string) None & info [] ~docv:"EXPR"
        ~doc:"Expression to normalize (for the normalize action).")
  in
  Cmd.v (Cmd.info "trait" ~doc)
    Term.(const run_trait $ action_arg $ name_arg $ expr_arg)

(* rlx compare PQ MPQ: classify two named behaviors by bounded language
   comparison (Section 5's comparison of specifications). *)
let run_compare a b depth =
  let alphabet =
    Relax_objects.Queue_ops.alphabet (Relax_objects.Queue_ops.universe 2)
  in
  match Relax_objects.Registry.classify ~alphabet ~depth a b with
  | Some c ->
    Fmt.pr "%s vs %s (depth %d): %a@." a b depth
      Relax_core.Language.pp_classification c;
    0
  | None ->
    Fmt.epr "unknown behavior (known: %s)@."
      (String.concat ", " Relax_objects.Registry.names);
    2

let compare_cmd =
  let doc =
    "Compare two named behaviors by bounded language inclusion (e.g. rlx \
     compare PQ MPQ)."
  in
  let a_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEFT" ~doc)
  in
  let b_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RIGHT" ~doc)
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run_compare $ a_arg $ b_arg $ depth_arg)

(* ------------------------------------------------------------------ *)
(* rlx load                                                            *)
(* ------------------------------------------------------------------ *)

let run_load ops shards sites rate read_fraction timeout drop no_crash closed
    concurrency seed point jobs out_file =
  let params =
    {
      Relax_experiments.Load.ops;
      shards;
      sites;
      rate;
      read_fraction;
      timeout;
      drop;
      crash = not no_crash;
      closed;
      concurrency;
      seed =
        Option.value seed ~default:Relax_experiments.Load.default_params.seed;
    }
  in
  let outcomes =
    match point with
    | None -> Relax_experiments.Load.run ?jobs ~params ()
    | Some p -> (
      let points = Relax_experiments.Taxi.points ~n:params.sites in
      let matching (pt : Relax_experiments.Taxi.point) =
        (* match on the canonical short names used by `rlx chaos` *)
        match p with
        | "top" -> String.length pt.label >= 7 && String.sub pt.label 0 7 = "{Q1,Q2}"
        | "q1" -> String.length pt.label >= 5 && String.sub pt.label 0 5 = "{Q1} "
        | "q2" -> String.length pt.label >= 5 && String.sub pt.label 0 5 = "{Q2} "
        | "bottom" -> String.length pt.label >= 2 && String.sub pt.label 0 2 = "{}"
        | _ -> false
      in
      match List.filter matching points with
      | [ pt ] -> [ Relax_experiments.Load.run_point ?jobs ~params pt ]
      | _ ->
        Fmt.epr "unknown lattice point %S (expected top | q1 | q2 | bottom)@." p;
        exit 2)
  in
  Fmt.pr "== X-load: %s workload over the sharded engine ==@."
    (if params.closed then "closed-loop" else "open-loop");
  Fmt.pr "ops %d  shards %d  sites %d  rate %.2f/ms  reads %.0f%%  drop %.3f  crash %b@."
    params.ops params.shards params.sites params.rate
    (100.0 *. params.read_fraction) params.drop params.crash;
  if params.closed then
    Fmt.pr "closed loop: at most %d in-flight operations per shard@."
      params.concurrency;
  List.iter (fun o -> Fmt.pr "%a@." Relax_experiments.Load.pp_outcome o) outcomes;
  (match out_file with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Relax_experiments.Load.json_of_outcomes outcomes);
    close_out oc;
    Fmt.pr "wrote %s@." path);
  0

let load_cmd =
  let doc =
    "Drive the sharded engine with an open-loop YCSB-style workload: \
     millions of quorum operations across the lattice points, reporting \
     availability, latency percentiles and throughput."
  in
  let d = Relax_experiments.Load.default_params in
  let ops_arg =
    let doc = "Total client operations across all shards." in
    Arg.(value & opt int d.ops & info [ "ops"; "n" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc = "Independent simulation shards (one engine each)." in
    Arg.(value & opt int d.shards & info [ "shards" ] ~docv:"N" ~doc)
  in
  let sites_arg =
    let doc = "Replica sites per shard." in
    Arg.(value & opt int d.sites & info [ "sites" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Mean arrivals per simulated millisecond, per shard." in
    Arg.(value & opt float d.rate & info [ "rate" ] ~docv:"R" ~doc)
  in
  let read_arg =
    let doc = "Fraction of operations that are reads (Deq)." in
    Arg.(
      value & opt float d.read_fraction & info [ "reads" ] ~docv:"FRAC" ~doc)
  in
  let timeout_arg =
    let doc = "Milliseconds before an operation counts as unavailable." in
    Arg.(value & opt float d.timeout & info [ "timeout" ] ~docv:"MS" ~doc)
  in
  let drop_arg =
    let doc = "Per-leg message loss probability." in
    Arg.(value & opt float d.drop & info [ "drop" ] ~docv:"P" ~doc)
  in
  let no_crash_arg =
    let doc = "Disable the mid-run crash window." in
    Arg.(value & flag & info [ "no-crash" ] ~doc)
  in
  let closed_arg =
    let doc =
      "Closed-loop mode: a bounded pool of clients (see $(b,--concurrency)) \
       replaces Poisson arrivals; each client issues its next operation \
       only when the previous one settles, so overload is absorbed as \
       reduced offered rate instead of queueing."
    in
    Arg.(value & flag & info [ "closed" ] ~doc)
  in
  let concurrency_arg =
    let doc = "In-flight operation bound per shard (closed loop only)." in
    Arg.(
      value & opt int d.concurrency & info [ "concurrency" ] ~docv:"N" ~doc)
  in
  let point_arg =
    let doc =
      "Run a single lattice point (top | q1 | q2 | bottom) instead of the \
       full sweep."
    in
    Arg.(value & opt (some string) None & info [ "point" ] ~docv:"POINT" ~doc)
  in
  let out_arg =
    let doc = "Write the outcomes as JSON to $(docv) (the CI artifact)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run_load $ ops_arg $ shards_arg $ sites_arg $ rate_arg $ read_arg
      $ timeout_arg $ drop_arg $ no_crash_arg $ closed_arg $ concurrency_arg
      $ seed_arg $ point_arg $ jobs_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* rlx relax                                                           *)
(* ------------------------------------------------------------------ *)

(* The live multicore loop: real domains race on the lock-free
   structures of lib/relax, and the recorded histories are decided
   against the Section 4 automata.  `run` is one seeded workload,
   `check` is the CI-budget conformance gate (sweep + planted negative
   + elastic trajectory), `bench` is the unrecorded scaling table. *)

let relax_impl_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "relaxed" -> Ok Relax_relax.Harness.Relaxed
    | "planted" -> Ok Relax_relax.Harness.Planted
    | "locked" -> Ok Relax_relax.Harness.Locked
    | "stuttering" -> Ok Relax_relax.Harness.Stuttering
    | _ ->
      Error
        (`Msg
          (Fmt.str "unknown impl %S (relaxed | planted | locked | stuttering)"
             s))
  in
  let print ppf i = Fmt.string ppf (Relax_relax.Harness.impl_name i) in
  Arg.conv (parse, print)

let run_relax_run impl domains ops k j prefill bias seed show_events =
  let module H = Relax_relax.Harness in
  let module C = Relax_relax.Conformance in
  let params =
    {
      H.impl;
      domains;
      ops_per_domain = ops;
      k;
      j;
      prefill;
      enq_bias = bias;
      seed = Option.value seed ~default:H.default_params.seed;
    }
  in
  let o = H.run params in
  Fmt.pr "== relax run: %s, %d domains x %d ops, k=%d j=%d, seed %d ==@."
    (H.impl_name impl) domains ops k j params.seed;
  if show_events then
    List.iter (fun c -> Fmt.pr "%a@." Relax_relax.Record.pp_completed c)
      o.H.events;
  Fmt.pr "recorded %d ops in %.4f s (%.3f Mops/s)@." o.H.ops o.H.wall_s
    o.H.mops;
  Fmt.pr "%a@." C.pp_verdict o.H.verdict;
  let conforms = C.conforms o.H.verdict in
  match impl with
  | H.Planted ->
    (* the negative control succeeds by being caught *)
    Fmt.pr "planted overtake: %s@."
      (if conforms then "ESCAPED the checker" else "caught");
    exit_of (not conforms)
  | _ -> exit_of conforms

let run_relax_check domains ops k j seeds seed0 =
  let module H = Relax_relax.Harness in
  let module C = Relax_relax.Conformance in
  let module X = Relax_experiments.Relax_x in
  let params =
    { H.default_params with domains; ops_per_domain = ops; k; j }
  in
  let seed_list = List.init seeds (fun i -> seed0 + i) in
  Fmt.pr "== relax check: %d domains x %d ops, k=%d, seeds %d..%d ==@." domains
    ops k seed0
    (seed0 + seeds - 1);
  let sweep = X.conformance_sweep params seed_list in
  Fmt.pr "relaxed vs Semiqueue_%d: %d/%d accepted@." k sweep.X.accepted seeds;
  List.iter
    (fun (seed, v) -> Fmt.pr "  seed %d REJECTED: %s@." seed v)
    sweep.X.rejections;
  let _events, at_claimed, at_doubled = X.planted_exhibit ~width:2 in
  let planted_ok =
    (not (C.conforms at_claimed)) && C.conforms at_doubled
  in
  Fmt.pr "planted overtake: %s at k=2, %s at k=4@."
    (if C.conforms at_claimed then "accepted (BUG MISSED)" else "rejected")
    (if C.conforms at_doubled then "accepted" else "rejected (BUG)");
  let el = H.run_elastic H.default_elastic_params in
  let widened =
    List.exists
      (fun (tr : Relax_relax.Controller.transition) -> tr.widened)
      el.H.etransitions
  and narrowed =
    List.exists
      (fun (tr : Relax_relax.Controller.transition) -> not tr.widened)
      el.H.etransitions
  in
  let elastic_ok =
    widened && narrowed && el.H.set_k_events >= 1 && C.conforms el.H.everdict
  in
  Fmt.pr "elastic: k %a, %d shift events, %s@."
    Fmt.(list ~sep:(any " -> ") int)
    el.H.evisited el.H.set_k_events
    (if C.conforms el.H.everdict then "accepted" else "REJECTED");
  exit_of (sweep.X.rejections = [] && planted_ok && elastic_ok)

let run_relax_bench domain_counts ops k j seed out =
  let module X = Relax_experiments.Relax_x in
  let rows = X.bench_rows ~domain_counts ~ops_per_domain:ops ~k ~j ~seed () in
  Fmt.pr "== relax bench: %d ops/domain, k=%d j=%d, seed %d ==@." ops k j seed;
  Fmt.pr "%a" X.pp_bench rows;
  (match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (X.bench_to_json rows);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "wrote %s@." path);
  0

let relax_cmd =
  let d = Relax_relax.Harness.default_params in
  let domains_arg =
    let doc = "Number of domains racing on the structure." in
    Arg.(value & opt int d.domains & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let ops_arg ~default =
    let doc = "Operations per domain." in
    Arg.(value & opt int default & info [ "ops"; "n" ] ~docv:"N" ~doc)
  in
  let k_arg =
    let doc = "Relaxation bound: segment width of the k-relaxed queue." in
    Arg.(value & opt int d.k & info [ "k" ] ~docv:"K" ~doc)
  in
  let j_arg =
    let doc = "Stutter budget of the j-stuttering queue." in
    Arg.(value & opt int d.j & info [ "j" ] ~docv:"J" ~doc)
  in
  let relax_seed_arg =
    let doc = "Base seed (run $(i,i) of a sweep uses $(i,SEED+i))." in
    Arg.(value & opt int d.seed & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
  in
  let run_cmd =
    let impl_arg =
      let doc = "Implementation: relaxed | planted | locked | stuttering." in
      Arg.(
        value
        & opt relax_impl_conv Relax_relax.Harness.Relaxed
        & info [ "impl"; "i" ] ~docv:"IMPL" ~doc)
    in
    let prefill_arg =
      let doc = "Items enqueued (and recorded) before spawning domains." in
      Arg.(value & opt int d.prefill & info [ "prefill" ] ~docv:"N" ~doc)
    in
    let bias_arg =
      let doc = "Probability an operation is an enqueue." in
      Arg.(value & opt float d.enq_bias & info [ "bias" ] ~docv:"P" ~doc)
    in
    let events_arg =
      let doc = "Print the recorded history (one completed op per line)." in
      Arg.(value & flag & info [ "events" ] ~doc)
    in
    let exits =
      Cmd.Exit.info
        ~doc:
          "the recorded history conforms (for $(b,--impl planted): the \
           checker caught the planted overtake)."
        0
      :: Cmd.Exit.info ~doc:"the conformance verdict went the wrong way." 1
      :: List.filter (fun i -> Cmd.Exit.info_code i > 1) Cmd.Exit.defaults
    in
    let doc =
      "One seeded multi-domain workload against a live structure, recorded \
       and conformance-checked against its lattice automaton."
    in
    Cmd.v (Cmd.info "run" ~doc ~exits)
      Term.(
        const run_relax_run $ impl_arg $ domains_arg
        $ ops_arg ~default:d.ops_per_domain $ k_arg $ j_arg $ prefill_arg
        $ bias_arg
        $ Arg.(
            value
            & opt (some int) None
            & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Workload seed.")
        $ events_arg)
  in
  let check_cmd =
    let seeds_arg =
      let doc = "Number of seeded runs in the conformance sweep." in
      Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc)
    in
    let doc =
      "The conformance gate: a pinned-seed multi-domain sweep against \
       Semiqueue_k, the planted-overtake negative control, and one elastic \
       trajectory under the combined automaton."
    in
    let exits =
      Cmd.Exit.info
        ~doc:
          "every sweep run accepted, the planted variant rejected at its \
           claimed bound, and the elastic trajectory (with at least one \
           widen and one narrow) accepted."
        0
      :: Cmd.Exit.info ~doc:"at least one of those gates failed." 1
      :: List.filter (fun i -> Cmd.Exit.info_code i > 1) Cmd.Exit.defaults
    in
    Cmd.v (Cmd.info "check" ~doc ~exits)
      Term.(
        const run_relax_check $ domains_arg $ ops_arg ~default:60 $ k_arg
        $ j_arg $ seeds_arg
        $ Arg.(
            value & opt int 0
            & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"First seed of the sweep."))
  in
  let bench_cmd =
    let domain_counts_arg =
      let doc = "Comma-separated domain counts to scale across." in
      Arg.(
        value
        & opt (list int) [ 1; 2; 4; 8 ]
        & info [ "domains"; "d" ] ~docv:"LIST" ~doc)
    in
    let out_arg =
      let doc = "Write the rows as JSON to $(docv) (the CI artifact)." in
      Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
    in
    let doc =
      "Unrecorded throughput: the segment-window relaxed queue versus the \
       locked baseline (and the stuttering queue) across domain counts."
    in
    Cmd.v (Cmd.info "bench" ~doc)
      Term.(
        const run_relax_bench $ domain_counts_arg $ ops_arg ~default:50_000
        $ k_arg $ j_arg $ relax_seed_arg $ out_arg)
  in
  let doc =
    "Live multicore relaxed queues: run, conformance-check and benchmark \
     the lock-free structures of lib/relax against the Section 4 lattice."
  in
  Cmd.group (Cmd.info "relax" ~doc) [ run_cmd; check_cmd; bench_cmd ]

let behaviors_cmd =
  let doc = "List the named behaviors available to 'rlx compare'." in
  Cmd.v (Cmd.info "behaviors" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun e ->
              Fmt.pr "%-14s %s@." e.Relax_objects.Registry.name
                e.Relax_objects.Registry.description)
            Relax_objects.Registry.entries;
          0)
      $ const ())

let main =
  let doc = "relaxation-lattice toolkit (Herlihy & Wing, PODC 1987)" in
  Cmd.group
    (Cmd.info "rlx" ~version:"1.0.0" ~doc)
    [
      check_cmd; figure_cmd; simulate_cmd; chaos_cmd; debug_cmd; ldfi_cmd;
      degrade_cmd; load_cmd; relax_cmd;
      trait_cmd; compare_cmd; behaviors_cmd;
    ]

let () = exit (Cmd.eval' main)
