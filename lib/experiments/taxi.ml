open Relax_core
open Relax_objects
open Relax_quorum
open Relax_replica

(* Experiment X-deg: the taxicab company of Section 3.3, run on the
   message-passing replica runtime with injected site crashes.

   The priority queue is replicated at [sites] sites; dispatchers enqueue
   prioritized requests and idle drivers dequeue the highest-priority
   pending one.  Four quorum assignments — realizing {Q1,Q2}, {Q1}, {Q2}
   and {} — are compared under the same fault process.  For each lattice
   point we measure availability and latency (the paper's "cost" column)
   and the anomalies of the relaxed behaviors (duplicate services,
   out-of-order services), and verify that the completed history is
   accepted by the behavior the lattice predicts and — for the strict
   points — NOT always by a stronger one. *)

type point = { label : string; cset : Cset.t; assignment : Assignment.t }

(* Voting assignments over [n] sites realizing each constraint set.  Enq
   always writes where it can (final threshold f_e) and Deq reads i_d and
   writes f_d; Q1 forces i_d + f_e > n, Q2 forces i_d + f_d > n.  The
   relaxed assignments use threshold 1 ("any available site"). *)
let points ~n =
  let maj = (n / 2) + 1 in
  let mk label cset enq_final deq_init deq_final =
    {
      label;
      cset;
      assignment =
        Assignment.make ~n
          [
            (Queue_ops.enq_name, { Assignment.initial = 0; final = enq_final });
            (Queue_ops.deq_name,
             { Assignment.initial = deq_init; final = deq_final });
          ];
    }
  in
  [
    mk "{Q1,Q2} (preferred: PQ)"
      (Cset.of_list [ "Q1"; "Q2" ])
      maj maj maj;
    mk "{Q1} (MPQ: duplicates possible)" (Cset.singleton "Q1") maj maj 1;
    mk "{Q2} (OPQ: reordering possible)" (Cset.singleton "Q2") 1 maj maj;
    mk "{} (DegenPQ)" Cset.empty 1 1 1;
  ]

type outcome = {
  label : string;
  requests : int;
  attempted : int; (* total operations attempted (enqueues + dequeues) *)
  served : int;
  unavailable : int; (* quorum could not be assembled before the timeout *)
  empty_views : int; (* Deq whose view showed nothing to dispatch *)
  duplicates : int;
  inversions : int;
  mean_latency : float;
  history_ok : bool; (* accepted by the predicted behavior *)
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "%-34s served %3d/%3d  unavailable %3d  empty %3d  dup %2d  inversions %2d  lat %6.1f  %s"
    o.label o.served o.requests o.unavailable o.empty_views o.duplicates
    o.inversions o.mean_latency
    (if o.history_ok then "history=predicted" else "HISTORY MISMATCH")

(* Anomaly metrics on the completed history. *)
let count_duplicates (h : History.t) =
  let deqs = List.filter Queue_ops.is_deq h in
  let tally = Hashtbl.create 16 in
  List.iter
    (fun p ->
      match Queue_ops.element p with
      | Some e ->
        let k = Value.to_string e in
        Hashtbl.replace tally k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
      | None -> ())
    deqs;
  Hashtbl.fold (fun _ n acc -> acc + max 0 (n - 1)) tally 0

(* A Deq is an inversion when some request of strictly higher priority was
   pending (enqueued, never yet dequeued) at that instant. *)
let count_inversions (h : History.t) =
  let rec go pending served inversions = function
    | [] -> inversions
    | p :: rest -> (
      match Queue_ops.element p with
      | None -> go pending served inversions rest
      | Some e ->
        if Queue_ops.is_enq p then go (Multiset.ins pending e) served inversions rest
        else
          let better_pending = not (Multiset.all_less_than (Multiset.del pending e) e)
          and was_pending = Multiset.mem pending e in
          let inversions =
            if was_pending && better_pending then inversions + 1 else inversions
          in
          let pending = Multiset.del pending e in
          go pending (Multiset.ins served e) inversions rest)
  in
  go Multiset.empty Multiset.empty 0 h

(* The predicted behavior as a fresh incremental oracle (the state type
   differs per point, so each branch is monomorphic). *)
let predicted_online cset =
  let module O = Relax_degrade.Online in
  if Cset.mem "Q1" cset && Cset.mem "Q2" cset then
    O.of_automaton Pqueue.automaton
  else if Cset.mem "Q1" cset then O.of_automaton Mpq.automaton
  else if Cset.mem "Q2" cset then O.of_automaton Opq.automaton
  else O.of_automaton Degen.automaton

type params = {
  sites : int;
  requests : int;
  crash_probability : float; (* per request-round, each site *)
  recover_probability : float;
  mean_latency : float;
  seed : int;
}

let default_params =
  {
    sites = 5;
    requests = 40;
    crash_probability = 0.15;
    recover_probability = 0.5;
    mean_latency = 4.0;
    seed = 2;
  }

(* One lattice point under one fault trace.  Operations run serially (each
   started when the previous completes or times out) so the completed
   history is directly comparable with the simple-object behaviors; the
   same seed produces the same crash pattern for every point. *)
let run_point ?(params = default_params) ?(timeout = 120.0) ?retries ?backoff
    point =
  let engine = Relax_sim.Engine.create ~seed:params.seed () in
  let net =
    Relax_sim.Network.create ~mean_latency:params.mean_latency engine
      ~sites:params.sites
  in
  let replica =
    Replica.create ~timeout ?retries ?backoff engine net point.assignment
      ~respond:Choosers.pq_eta
  in
  let rng = Relax_sim.Rng.create ~seed:(params.seed + 77) in
  (* Distinct priorities, so a repeated Deq value is genuinely the same
     request serviced twice and not a priority collision. *)
  let priorities =
    let arr = Array.init params.requests (fun i -> i + 1) in
    Relax_sim.Rng.shuffle rng arr;
    Array.to_list arr
  in
  (* interleave: enqueue a request, then with growing probability dequeue *)
  let ops = ref [] in
  let enqueued = ref 0 and dequeued = ref 0 in
  List.iter
    (fun prio ->
      ops := `Enq prio :: !ops;
      if Relax_sim.Rng.bool rng 0.7 then ops := `Deq :: !ops)
    priorities;
  let ops = List.rev !ops in
  (* faults come from the chaos layer: one nemesis stepped per round,
     its actions applied through the single fault code path *)
  let nemesis =
    Relax_chaos.Nemesis.crash_recover ~crash_p:params.crash_probability
      ~recover_p:params.recover_probability ()
  in
  let crash_round () =
    let shadow = Relax_chaos.Fault.Shadow.of_network net in
    List.iter
      (Relax_chaos.Fault.apply ~replica net)
      (Relax_chaos.Nemesis.step nemesis rng shadow)
  in
  let unavailable = ref 0 and empty_views = ref 0 in
  (* packet-radio relaying: background propagation is the self-healing
     anti-entropy loop — quiet while the logs agree, a gossip round as
     soon as they diverge, backing off (up to five op windows) while a
     round cannot help *)
  let ae =
    Relax_degrade.Anti_entropy.create ~check_every:500.0 ~min_interval:500.0
      ~max_interval:2500.0 engine replica
  in
  Relax_degrade.Anti_entropy.install ae;
  let run_op op =
    crash_round ();
    let client_site = Relax_sim.Rng.pick rng (Relax_sim.Network.up_sites net) in
    let inv =
      match op with
      | `Enq prio -> Op.inv Queue_ops.enq_name ~args:[ Value.int prio ]
      | `Deq -> Op.inv Queue_ops.deq_name
    in
    let settled = ref false in
    Replica.execute replica ~client_site inv (fun r ->
        settled := true;
        match r with
        | Replica.Completed (p, _) ->
          if Queue_ops.is_enq p then incr enqueued
          else if Queue_ops.is_deq p then incr dequeued
        | Replica.Unavailable reason ->
          (* distinguish "no taxi request pending in the view" from a real
             quorum failure *)
          if String.length reason >= 2 && reason.[0] = 'n' && reason.[1] = 'o'
          then incr empty_views
          else incr unavailable);
    (* run the engine until this operation settles *)
    Relax_sim.Engine.run ~until:(Relax_sim.Engine.now engine +. 500.0) engine;
    if not !settled then incr unavailable
  in
  List.iter run_op ops;
  (* let the background propagation quiesce *)
  Replica.gossip replica;
  Relax_sim.Engine.run ~until:(Relax_sim.Engine.now engine +. 500.0) engine;
  let history = Replica.completed_history replica in
  let latencies = Replica.op_latencies replica in
  let mean_latency =
    match latencies with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  {
    label = point.label;
    requests = params.requests;
    attempted = List.length ops;
    served = !dequeued;
    unavailable = !unavailable;
    empty_views = !empty_views;
    duplicates = count_duplicates history;
    inversions = count_inversions history;
    mean_latency;
    history_ok =
      (let o = predicted_online point.cset in
       Relax_degrade.Online.feed o history;
       Relax_degrade.Online.conforms o);
  }

let run_all ?(params = default_params) ?timeout ?retries ?backoff () =
  List.map
    (run_point ~params ?timeout ?retries ?backoff)
    (points ~n:params.sites)

let run_body ?params ?timeout ?retries ?backoff ppf =
  let outcomes = run_all ?params ?timeout ?retries ?backoff () in
  List.iter (fun o -> Fmt.pf ppf "%a@\n" pp_outcome o) outcomes;
  List.for_all (fun o -> o.history_ok) outcomes

let claims ?params ?timeout ?retries ?backoff () =
  [
    Relax_claims.Claim.report ~id:"taxi/degradation" ~kind:Characterization
      ~paper:"Section 3.3 (taxicab example)"
      ~description:
        "each lattice point's completed history matches its predicted \
         behavior under injected crashes"
      ~detail:"replica runtime, 4 quorum assignments under one fault trace"
      (run_body ?params ?timeout ?retries ?backoff);
  ]

let group ?params ?timeout ?retries ?backoff () =
  {
    Relax_claims.Registry.gid = "taxi";
    title = "Section 3.3 taxi dispatch on the replica runtime";
    header =
      "== Section 3.3: taxi dispatch on the replica runtime (crashes \
       injected) ==\n";
    claims = claims ?params ?timeout ?retries ?backoff ();
  }
