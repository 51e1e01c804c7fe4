(* Workload [faults]: lineage-driven fault search over every chaos lattice
   point, one point after another, at the CI failure budget (one crash,
   one dropped copy).

   The only workload that runs the chaos runner, the replica runtime,
   the journal (through recover and lost), the degradation controller
   (through adaptive), the oracle and the LDFI solver.  It drives the
   simulator the opposite way from [load]: thousands of short traced
   executions instead of a few long ones.  A call is one injected
   execution; the search decides the next one from the lineage of the
   last, so the loop is closed.

   The workload seed roots a stream of chaos-runner seeds, one per point
   search.  A search's cost depends strongly on its runner seed (the
   executions per point pass range from about 2,000 to 2,900 across
   seeds), so a run averages over many of them instead of timing one. *)

module Chaos = Relax_chaos
module Search = Relax_ldfi.Search
module Ldfi_x = Relax_experiments.Ldfi_x
module Scenarios = Relax_experiments.Chaos_scenarios

let budget = Search.ci_budget
let points = Scenarios.names

(* the point the warm-up call searches, at the default runner seed:
   short, and the same whatever the workload seed *)
let warm_up_point = "bottom"
let config seed = { Ldfi_x.default_config with Chaos.Runner.seed }

type exec_sample = { ms : float; alloc : float }

(* Search one point, timing every execution the search asks for. *)
let search r ~config point =
  let sc =
    match Scenarios.find point with Ok sc -> sc | Error e -> failwith e
  in
  let sys = Ldfi_x.system ~config point in
  let samples = ref [] in
  Span.fresh_heap ();
  let exec events =
    let a0 = Span.alloc_words () in
    let start_ms = Span.now_ms () in
    let run = sys.Search.exec events in
    let stop_ms = Span.now_ms () in
    let a1 = Span.alloc_words () in
    Span.leaf r ("chaos/" ^ point) ~start_ms ~stop_ms;
    samples := { ms = stop_ms -. start_ms; alloc = a1 -. a0 } :: !samples;
    run
  in
  let result =
    Span.enclose r ("ldfi/" ^ point) (fun () ->
        Search.guided ~durable:sc.Scenarios.durable ~budget { Search.exec })
  in
  let ok = result.Search.stats.Search.exhausted && result.Search.violation = None in
  if not ok then Printf.eprintf "faults: %s not exhausted with 0 violations\n%!" point;
  (ok, result.Search.stats, List.rev !samples)

(* The per-point fields CI diffs against expected_ldfi_coverage.json. *)
let coverage_matches expected point (s : Search.stats) =
  match
    List.find_opt
      (fun e -> Jsonv.to_string (Jsonv.field "point" e) = point)
      expected
  with
  | None -> false
  | Some e ->
    let num k = int_of_float (Jsonv.to_num (Jsonv.field k e)) in
    num "executions" = s.Search.executions
    && num "injections" = s.Search.injections
    && num "candidates" = s.Search.candidates
    && num "vars" = s.Search.vars
    && num "clauses" = s.Search.clauses
    && num "rounds" = s.Search.rounds
    && Jsonv.to_bool (Jsonv.field "exhausted" e) = s.Search.exhausted
    && num "violations" = 0

(* At the default seed every point's search statistics equal the CI
   coverage arbiter. *)
let coverage_check ~root =
  let expected =
    Jsonv.read_file (Filename.concat root "expected_ldfi_coverage.json")
    |> Jsonv.field "points" |> Jsonv.to_list
  in
  let config = config Relax_sim.Engine.default_seed in
  let bad =
    List.filter
      (fun point ->
        let ok, stats, _ = search None ~config point in
        let same = ok && coverage_matches expected point stats in
        if not same then
          Printf.eprintf "faults: %s differs from expected_ldfi_coverage.json\n%!"
            point;
        not same)
      points
  in
  (List.length points, List.length bad)

let make ~seed ~root =
  let warm_up () =
    let ok, _, _ =
      search None ~config:(config Relax_sim.Engine.default_seed) warm_up_point
    in
    if ok then 0 else 1
  in
  let pass r k =
    let rng = Random.State.make [| seed; k |] in
    let t0 = Span.now_ms () in
    let results =
      Span.enclose r "faults/pass" (fun () ->
          List.map
            (fun point ->
              let config = config (Random.State.bits rng) in
              (point, search r ~config point))
            points)
    in
    let execs = List.concat_map (fun (_, (_, _, xs)) -> xs) results in
    let stat f = Quant.sum (fun (_, (_, s, _)) -> float_of_int (f s)) results in
    {
      Pass.calls =
        List.concat_map
          (fun (point, (_, _, xs)) ->
            List.map (fun (x : exec_sample) -> { Pass.tag = point; ms = x.ms }) xs)
          results;
      units = float_of_int (List.length execs);
      failed =
        List.fold_left
          (fun acc (_, (ok, _, xs)) -> if ok then acc else acc + List.length xs)
          0 results;
      counts =
        [
          ("chaos.executions", float_of_int (List.length execs));
          ("chaos.alloc_words", Quant.sum (fun (x : exec_sample) -> x.alloc) execs);
          ("ldfi.candidates", stat (fun s -> s.Search.candidates));
          ("ldfi.clauses", stat (fun s -> s.Search.clauses));
          ("ldfi.vars", stat (fun s -> s.Search.vars));
          ("ldfi.rounds", stat (fun s -> s.Search.rounds));
        ];
      wall_s = (Span.now_ms () -. t0) /. 1000.0;
    }
  in
  let layers first passes table =
    let c = Pass.count first in
    let n = float_of_int (List.length passes) in
    let exec_s = Span.self_s table "chaos" /. n in
    let search_s = Span.self_s table "ldfi" /. n in
    [
      ("chaos.exec_s", exec_s);
      ("chaos.executions", c "chaos.executions");
      ("chaos.alloc_w_per_exec", c "chaos.alloc_words" /. c "chaos.executions");
    ]
    @ List.map
        (fun point -> ("chaos.exec_ms." ^ point, Pass.median_ms passes point))
        points
    @ [
        ("ldfi.search_s", search_s);
        ("ldfi.exec_share", exec_s /. (exec_s +. search_s));
        ("ldfi.candidates", c "ldfi.candidates");
        ("ldfi.clauses", c "ldfi.clauses");
        ("ldfi.vars", c "ldfi.vars");
        ("ldfi.rounds", c "ldfi.rounds");
      ]
  in
  {
    Pass.warm_up;
    pass;
    post_check = (fun () -> coverage_check ~root);
    layers;
    extra = (fun _ -> []);
  }
