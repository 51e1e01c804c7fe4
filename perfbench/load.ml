(* Workload [load]: the sharded quorum load generator, one equal-sized
   call per lattice point in turn.

   Inside a call, arrivals are open-loop Poisson in simulated time
   (`Load.default_params`: 4 shards, 5 sites, 1 arrival/ms per shard,
   50% reads, 2% per-leg loss, 5 ms mean leg delay, a mid-run crash
   window).  In wall time the calls form a closed loop.  The simulation
   engine, network and histograms do all the work; the replica runtime,
   the proof pipeline and LDFI do none.  The four points use the engine
   differently: top waits out timeouts, bottom answers from any
   reachable site. *)

module L = Relax_experiments.Load
module Taxi = Relax_experiments.Taxi

let ops_per_call = 20_000

(* the lattice points in `rlx load --point` order, by label prefix *)
let point_names = [ ("top", "{Q1,Q2}"); ("q1", "{Q1} "); ("q2", "{Q2} "); ("bottom", "{}") ]

let points () =
  let all = Taxi.points ~n:L.default_params.L.sites in
  List.map
    (fun (name, prefix) ->
      match
        List.filter
          (fun (p : Taxi.point) -> String.starts_with ~prefix p.Taxi.label)
          all
      with
      | [ p ] -> (name, p)
      | _ -> failwith ("load: no single lattice point " ^ prefix))
    point_names

(* Every arrived operation either completed or was counted unavailable. *)
let consistent ~ops (o : L.outcome) =
  o.L.ops = ops && o.L.completed + o.L.unavailable = ops

type sample = { ok : bool; ms : float; alloc : float; outcome : L.outcome }

let call params point =
  Span.fresh_heap ();
  let a0 = Span.alloc_words () in
  let t0 = Span.now_ms () in
  let o = L.run_point ~jobs:1 ~params point in
  let t1 = Span.now_ms () in
  let a1 = Span.alloc_words () in
  let ok = consistent ~ops:params.L.ops o in
  if not ok then
    Printf.eprintf "load: %s: %d arrived, %d completed, %d unavailable\n%!"
      o.L.label o.L.ops o.L.completed o.L.unavailable;
  (t0, t1, { ok; ms = t1 -. t0; alloc = a1 -. a0; outcome = o })

(* The CI load smoke: 40k operations at top and bottom, default seed,
   against the SLO fields of expected_load_slo.json. *)
let slo_check ~root points =
  let params = { L.default_params with L.ops = 40_000 } in
  let expected =
    Jsonv.read_file (Filename.concat root "expected_load_slo.json")
    |> Jsonv.to_list
  in
  let actual =
    List.map (fun n -> L.run_point ~jobs:1 ~params (List.assoc n points)) [ "top"; "bottom" ]
  in
  if List.length expected <> List.length actual then (2, 2)
  else
    let bad =
      List.filter
        (fun (e, (o : L.outcome)) ->
          let num k = Jsonv.to_num (Jsonv.field k e) in
          let same =
            Jsonv.to_string (Jsonv.field "label" e) = o.L.label
            && num "ops" = float_of_int o.L.ops
            && num "completed" = float_of_int o.L.completed
            && num "unavailable" = float_of_int o.L.unavailable
            && num "availability" = o.L.availability
            && num "p50" = o.L.p50
            && num "p99" = o.L.p99
            && num "p999" = o.L.p999
          in
          if not same then
            Printf.eprintf "load: %s differs from expected_load_slo.json\n%!"
              o.L.label;
          not same)
        (List.combine expected actual)
    in
    (List.length actual, List.length bad)

let make ~seed ~root =
  let points = points () in
  let params = { L.default_params with L.ops = ops_per_call; seed } in
  let warm_up () =
    (* at the default params seed: the same call whatever the seed *)
    let params = { L.default_params with L.ops = ops_per_call } in
    let _, _, s = call params (List.assoc "top" points) in
    if s.ok then 0 else 1
  in
  let pass r (_ : int) =
    let t0 = Span.now_ms () in
    let samples =
      Span.enclose r "load/pass" (fun () ->
          List.map
            (fun (name, point) ->
              let start_ms, stop_ms, s = call params point in
              Span.leaf r ("sim/" ^ name) ~start_ms ~stop_ms;
              (name, s))
            points)
    in
    let ss = List.map snd samples in
    let o f = Quant.sum (fun s -> float_of_int (f s.outcome)) ss in
    {
      Pass.calls = List.map (fun (name, s) -> { Pass.tag = name; ms = s.ms }) samples;
      units = o (fun o -> o.L.ops);
      failed = List.length (List.filter (fun s -> not s.ok) ss);
      counts =
        [
          ("sim.ops", o (fun o -> o.L.ops));
          ("sim.completed", o (fun o -> o.L.completed));
          ("sim.events", o (fun o -> o.L.events));
          ("sim.alloc_words", Quant.sum (fun s -> s.alloc) ss);
          ( "sim.p99_ms",
            List.fold_left (fun m s -> Float.max m s.outcome.L.p99) 0.0 ss );
        ];
      wall_s = (Span.now_ms () -. t0) /. 1000.0;
    }
  in
  let extra passes =
    let p = List.hd passes in
    [
      ("availability", Pass.count p "sim.completed" /. Pass.count p "sim.ops");
      ("sim_p99_ms", Pass.count p "sim.p99_ms");
    ]
  in
  let layers first passes table =
    let p = first in
    let c = Pass.count p in
    let sim_s = Span.self_s table "sim" /. float_of_int (List.length passes) in
    [
      ("sim.events", c "sim.events");
      ("sim.events_per_op", c "sim.events" /. c "sim.ops");
      ("sim.events_per_s", c "sim.events" /. sim_s);
      ("sim.alloc_w_per_op", c "sim.alloc_words" /. c "sim.ops");
      ("sim.top_ms", Pass.median_ms passes "top");
      ("sim.q1_ms", Pass.median_ms passes "q1");
      ("sim.q2_ms", Pass.median_ms passes "q2");
      ("sim.bottom_ms", Pass.median_ms passes "bottom");
      ("sim.availability", c "sim.completed" /. c "sim.ops");
      ("sim.p99_ms", c "sim.p99_ms");
    ]
  in
  { Pass.warm_up; pass; post_check = (fun () -> slo_check ~root points); layers; extra }
