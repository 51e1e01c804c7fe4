open Relax_objects
open Relax_quorum
open Relax_prob

(* Experiment X-av: availability of each lattice point of the replicated
   priority queue, exactly (binomial tails) and by Monte Carlo.

   A lattice point's quorum assignment fixes per-operation vote
   thresholds; with each site up independently with probability p, an
   operation is available when max(initial, final) sites are up.  The
   table quantifies the paper's central trade-off: relaxing constraints
   buys availability.  The experiment also confirms the exact formula
   against simulation. *)

type row = {
  label : string;
  p : float;
  enq_availability : float;
  deq_availability : float;
}

let op_availability assignment ~p op =
  let need =
    max
      (Assignment.initial_threshold assignment op)
      (Assignment.final_threshold assignment op)
  in
  Binomial.tail ~n:(Assignment.sites assignment) ~p need

(* The sweep fans one task per lattice point out over domains; rows come
   back in lattice order regardless of how many domains computed them. *)
let exact_table ?(n = 5) ?(ps = [ 0.5; 0.7; 0.9; 0.99 ]) () =
  Relax_parallel.Pool.map
    (fun (point : Taxi.point) ->
      List.map
        (fun p ->
          {
            label = point.Taxi.label;
            p;
            enq_availability =
              op_availability point.Taxi.assignment ~p Queue_ops.enq_name;
            deq_availability =
              op_availability point.Taxi.assignment ~p Queue_ops.deq_name;
          })
        ps)
    (Taxi.points ~n)
  |> List.concat

(* Monte Carlo cross-check of one cell. *)
let simulate_cell ?(trials = 100_000) assignment ~p op =
  let n = Assignment.sites assignment in
  Montecarlo.probability ~trials (fun rng ->
      let up = ref 0 in
      for _ = 1 to n do
        if Relax_sim.Rng.bool rng p then incr up
      done;
      Assignment.available assignment ~up:!up op)

(* Weighted voting (Gifford): realize the same Deq-Deq intersection with
   a heavier vote at a more reliable site, and compare exact
   availabilities.  [site_ps] gives per-site up probabilities (the first
   site is the reliable one). *)
let weighted_comparison ?(site_ps = [| 0.99; 0.6; 0.6; 0.6; 0.6 |]) () =
  let uniform =
    Weighted.of_uniform
      (Assignment.make ~n:(Array.length site_ps)
         [ (Queue_ops.deq_name, { Assignment.initial = 3; final = 3 }) ])
  in
  let weighted =
    Weighted.make ~weights:[| 3; 1; 1; 1; 1 |]
      [ (Queue_ops.deq_name, { Assignment.initial = 4; final = 4 }) ]
  in
  let a_uniform = Weighted.exact_availability uniform ~p:site_ps Queue_ops.deq_name in
  let a_weighted =
    Weighted.exact_availability weighted ~p:site_ps Queue_ops.deq_name
  in
  (a_uniform, a_weighted)

let run_body ppf =
  let rows = exact_table () in
  Fmt.pf ppf "%-34s %-6s %-10s %-10s@\n" "Lattice point" "p(up)" "Enq avail"
    "Deq avail";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-34s %-6.2f %-10.4f %-10.4f@\n" r.label r.p
        r.enq_availability r.deq_availability)
    rows;
  (* cross-check: exact vs Monte Carlo on the preferred point at p=0.9 *)
  let preferred = List.hd (Taxi.points ~n:5) in
  let exact =
    op_availability preferred.Taxi.assignment ~p:0.9 Queue_ops.deq_name
  in
  let mc =
    simulate_cell preferred.Taxi.assignment ~p:0.9 Queue_ops.deq_name
  in
  Fmt.pf ppf
    "cross-check Deq@preferred p=0.9: exact %.4f, simulated %a@\n" exact
    Montecarlo.pp_estimate mc;
  let consistent = Montecarlo.consistent_with mc ~theory:exact in
  (* relaxation must never decrease availability *)
  let monotone =
    List.for_all
      (fun p ->
        let avail label =
          let point =
            List.find
              (fun (pt : Taxi.point) -> pt.Taxi.label = label)
              (Taxi.points ~n:5)
          in
          op_availability point.Taxi.assignment ~p Queue_ops.deq_name
        in
        let points = Taxi.points ~n:5 in
        let top = avail (List.hd points).Taxi.label in
        let bottom = avail (List.nth points 3).Taxi.label in
        bottom >= top)
      [ 0.5; 0.7; 0.9 ]
  in
  Fmt.pf ppf "relaxation never hurts availability: %b@\n" monotone;
  (* Gifford weighting: same intersection guarantee, better availability
     when one site is markedly more reliable *)
  let a_uniform, a_weighted = weighted_comparison () in
  Fmt.pf ppf
    "weighted voting (reliable site carries 3 votes): uniform %.4f vs weighted %.4f@\n"
    a_uniform a_weighted;
  consistent && monotone && a_weighted > a_uniform

let claims () =
  [
    Relax_claims.Claim.report ~id:"availability/lattice" ~kind:Numeric
      ~paper:"Section 3.3 (availability/consistency trade-off)"
      ~description:
        "availability of each lattice point: exact binomial vs Monte Carlo, \
         plus weighted voting"
      ~detail:"n = 5 voting sites, p(up) in {0.5, 0.7, 0.9, 0.99}" (fun ppf ->
        run_body ppf);
  ]

let group () =
  {
    Relax_claims.Registry.gid = "availability";
    title = "availability of each lattice point (n=5 voting sites)";
    header = "== Availability of each lattice point (n=5 voting sites) ==\n";
    claims = claims ();
  }
