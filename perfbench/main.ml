(* The repository benchmark: one workload, one seed, one process, one
   domain.

     main.exe --workload spec|load|faults --seed N --seconds S --trace 0|1
              [--root DIR] [--out DIR]

   Set-up (building the inputs and one untimed warm-up call) runs
   [setup_runs] times and reports its median.  The timed phase then
   repeats whole passes of the workload until [--seconds] have elapsed.
   With [--trace 0] the last line of standard output is the result with
   the end-to-end metrics; with [--trace 1] the first half of the time
   runs untraced and the second half records spans, and the result
   carries the per-layer metrics and the tracing overhead.  The traced
   run also writes a Chrome trace and a per-layer self-time table to
   [--out].  Every output is checked; a wrong one counts as failed. *)

let setup_runs = 5

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("peak_heap_mb", "MB");
    ("ok_ratio", "ratio");
  ]

let per_layer =
  [
    ("proof.sim_s", "s");
    ("proof.sim_claims", "count");
    ("proof.fallbacks", "count");
    ("proof.obligations", "count");
    ("proof.relation_pairs", "count");
    ("proof.obligations_per_s", "1/s");
    ("core.enum_s", "s");
    ("core.histories", "count");
    ("core.pairs_visited", "count");
    ("core.memo_hit_ratio", "ratio");
    ("core.pairs_per_s", "1/s");
    ("quorum.sd_s", "s");
    ("claims.alloc_mw", "Mwords");
    ("sim.events", "count");
    ("sim.events_per_op", "count");
    ("sim.events_per_s", "1/s");
    ("sim.alloc_w_per_op", "words");
    ("sim.top_ms", "ms");
    ("sim.q1_ms", "ms");
    ("sim.q2_ms", "ms");
    ("sim.bottom_ms", "ms");
    ("sim.availability", "ratio");
    ("sim.p99_ms", "ms");
    ("chaos.exec_s", "s");
    ("chaos.executions", "count");
    ("chaos.alloc_w_per_exec", "words");
  ]
  @ List.map (fun p -> ("chaos.exec_ms." ^ p, "ms")) Faults.points
  @ [
      ("ldfi.search_s", "s");
      ("ldfi.exec_share", "ratio");
      ("ldfi.candidates", "count");
      ("ldfi.clauses", "count");
      ("ldfi.vars", "count");
      ("ldfi.rounds", "count");
      ("trace.overhead_ratio", "ratio");
    ]

let workloads =
  [ ("spec", Spec.make); ("load", Load.make); ("faults", Faults.make) ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* Run passes 0, 1, ... until [seconds] have elapsed; at least one.
   [run k] runs pass [k]. *)
let repeat ~seconds run =
  let t0 = Span.now_ms () in
  let rec go k acc =
    let acc = run k :: acc in
    if Span.now_ms () -. t0 >= seconds *. 1000.0 then List.rev acc
    else go (k + 1) acc
  in
  go 0 []

let json_metrics units values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v =
           match List.assoc_opt name values with
           | Some v -> v
           | None -> 0.0 (* a layer this workload bypasses *)
         in
         if not (Float.is_finite v) then fail "metric %s is not finite" name;
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Jsonv.num v) unit)
       units)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and root = ref "." and out = ref "perfbench/out" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME spec | load | faults");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
      ("--root", Arg.Set_string root, "DIR repository root (expected_*.json)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its files");
    ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %s" a) "main.exe [options]";
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None -> fail "unknown workload %S (spec | load | faults)" !workload
  in
  if !seed < 0 then fail "--seed N is required (N >= 0)";
  if not (!seconds > 0.0) then fail "--seconds S is required (S > 0)";
  if !trace <> 0 && !trace <> 1 then fail "--trace 0|1 is required";
  (* one domain: no pool call may fan out, whatever RLX_JOBS says *)
  Relax_parallel.Pool.set_default_jobs 1;
  Printf.printf
    "machine {\"cores\": %d, \"ocaml\": %S, \"word_size\": %d, \"os\": %S}\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size Sys.os_type;
  let attempted = ref 0 and failed = ref 0 in
  let tally (a, f) =
    attempted := !attempted + a;
    failed := !failed + f
  in
  let setups =
    List.init setup_runs (fun _ ->
        let t0 = Span.now_ms () in
        let w = make ~seed:!seed ~root:!root in
        tally (1, w.Pass.warm_up ());
        (w, (Span.now_ms () -. t0) /. 1000.0))
  in
  let w = fst (List.nth setups (setup_runs - 1)) in
  let setup_s = Quant.median (List.map snd setups) in
  let timed passes =
    List.iter
      (fun (p : Pass.t) -> tally (List.length p.Pass.calls, p.Pass.failed))
      passes
  in
  let metrics, units =
    if !trace = 0 then begin
      let passes = repeat ~seconds:!seconds (w.Pass.pass None) in
      timed passes;
      let peak_heap_mb = Span.peak_heap_mb () in
      tally (w.Pass.post_check ());
      let calls = List.concat_map (fun p -> p.Pass.calls) passes in
      let ms = List.map (fun c -> c.Pass.ms) calls in
      let extra = w.Pass.extra passes in
      Printf.printf "detail {\"workload\": %S, \"seed\": %d, \"passes\": %d, \"calls\": %d%s}\n"
        !workload !seed (List.length passes) (List.length calls)
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k (Jsonv.num v)) extra));
      ( [
          ("setup_s", setup_s);
          ( "ops_per_s",
            Quant.sum (fun p -> p.Pass.units) passes
            /. Quant.sum (fun p -> p.Pass.wall_s) passes );
          ("op_p50_ms", Quant.quantile 0.5 ms);
          ("op_p90_ms", Quant.quantile 0.9 ms);
          ("peak_heap_mb", peak_heap_mb);
          ( "ok_ratio",
            1.0 -. (float_of_int !failed /. float_of_int !attempted) );
        ],
        end_to_end )
    end
    else begin
      (* Each pass runs twice, untraced then traced, so the two halves do
         the same work under the same machine conditions. *)
      let tracer = Relax_obs.Tracer.create () in
      let pairs =
        repeat ~seconds:!seconds (fun k ->
            let plain = w.Pass.pass None k in
            (plain, w.Pass.pass (Some tracer) k))
      in
      let plain = List.map fst pairs and traced = List.map snd pairs in
      timed plain;
      timed traced;
      tally (w.Pass.post_check ());
      (* The per-layer counts are the first pass's: they repeat exactly
         for every run at the same seed (allocated words too, since the
         first pass starts from the same heap state). *)
      let first = List.hd plain in
      let events = Relax_obs.Tracer.events tracer in
      let table = Span.self_times events in
      let base = Printf.sprintf "%s/%s-seed%d" !out !workload !seed in
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      Relax_obs.Export.write_file (base ^ ".trace.json") Relax_obs.Export.Chrome
        events;
      let oc = open_out (base ^ ".layers.txt") in
      let ppf = Format.formatter_of_out_channel oc in
      Span.pp_table ppf table;
      Format.pp_print_flush ppf ();
      close_out oc;
      let wall = Quant.sum (fun p -> p.Pass.wall_s) in
      let counts =
        List.map
          (fun (k, v) -> Printf.sprintf ", %S: %s" k (Jsonv.num v))
          first.Pass.counts
      in
      Printf.printf
        "detail {\"workload\": %S, \"seed\": %d, \"passes\": %d%s}\n"
        !workload !seed (List.length pairs)
        (String.concat "" counts);
      ( w.Pass.layers first traced table
        @ [ ("trace.overhead_ratio", wall traced /. wall plain) ],
        per_layer )
    end
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k units) then fail "metric %s is not declared" k)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0)
    !attempted !failed (json_metrics units metrics)
