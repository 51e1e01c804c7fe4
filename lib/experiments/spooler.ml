open Relax_objects
open Relax_txn

(* Experiments A4-2 / X-conc: the printing service of Section 4.2.

   For each concurrency-control policy and each concurrency bound k, a
   randomized workload is run and the recorded schedule is checked against
   the atomic relaxation-lattice point the paper predicts:

     locking      -> Atomic(FIFO queue)      (and blocks dequeuers)
     optimistic   -> Atomic(Semiqueue_k)     (out-of-order, no duplicates)
     pessimistic  -> Atomic(Stuttering_k)    (duplicates, FIFO order)

   The measured anomaly counters (inversions, duplicates) and the number
   of blocked dequeue attempts quantify the concurrency/consistency
   trade-off: the paper's "cost" column for this example. *)

type outcome = {
  policy : Spool.policy;
  k : int;
  observed_dequeuers : int;
  blocked : int;
  inversions : int;
  duplicates : int;
  atomic_predicted : bool; (* Def. 6 atomicity wrt the predicted behavior *)
  fifo_in_commit_order : bool; (* preferred behavior holds in commit order *)
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "%-12s k=%d  dequeuers<=%d  blocked %3d  inversions %2d  dup %2d  %s%s"
    (Fmt.str "%a" Spool.pp_policy o.policy)
    o.k o.observed_dequeuers o.blocked o.inversions o.duplicates
    (if o.atomic_predicted then "atomic@predicted" else "ATOMICITY VIOLATION")
    (if o.fifo_in_commit_order then " (even FIFO)" else "")

(* Predicted behaviors differ in state type, so the check is exposed as a
   predicate on schedules.  Definition 6 atomicity: the committed
   subschedule serializes in SOME order (the pessimistic policy's commit
   order can interleave two returns of one item around another item, yet a
   reordering always exists). *)
let predicted_atomic policy k schedule =
  match policy with
  | Spool.Locking -> Atomicity.atomic Fifo.automaton schedule
  | Spool.Optimistic ->
    Atomicity.atomic (Semiqueue.automaton (max 1 k)) schedule
  | Spool.Pessimistic ->
    Atomicity.atomic (Stuttering.automaton (max 1 k)) schedule

let run_one ?(items = 10) ?(seed = 5) ?(abort_probability = 0.2) policy ~k =
  let params =
    { Workload.items; max_dequeuers = k; abort_probability; seed }
  in
  let outcome = Workload.run ~params policy in
  let observed = outcome.Workload.observed_dequeuers in
  {
    policy;
    k;
    observed_dequeuers = observed;
    blocked = outcome.Workload.blocked_attempts;
    inversions = Workload.inversions outcome;
    duplicates = Workload.duplicates outcome;
    atomic_predicted =
      predicted_atomic policy observed outcome.Workload.schedule;
    fifo_in_commit_order =
      Atomicity.hybrid_atomic Fifo.automaton outcome.Workload.schedule;
  }

let sweep ?(ks = [ 1; 2; 3; 4 ]) ?(seeds = [ 5; 6; 7 ]) () =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun k -> List.map (fun seed -> run_one ~seed policy ~k) seeds)
        ks)
    [ Spool.Locking; Spool.Optimistic; Spool.Pessimistic ]

let run_body ?seeds ppf =
  let outcomes = sweep ?seeds () in
  List.iter (fun o -> Fmt.pf ppf "%a@\n" pp_outcome o) outcomes;
  let all_atomic = List.for_all (fun o -> o.atomic_predicted) outcomes in
  (* the trade-off signature: locking never reorders or duplicates but
     blocks; optimistic reorders, never duplicates; pessimistic
     duplicates, never reorders *)
  let by p = List.filter (fun o -> o.policy = p) outcomes in
  let locking_clean =
    List.for_all (fun o -> o.inversions = 0 && o.duplicates = 0) (by Spool.Locking)
  in
  let optimistic_no_dup =
    List.for_all (fun o -> o.duplicates = 0) (by Spool.Optimistic)
  in
  let pessimistic_no_inv =
    List.for_all (fun o -> o.inversions = 0) (by Spool.Pessimistic)
  in
  Fmt.pf ppf "all schedules atomic at their predicted lattice point: %b@\n"
    all_atomic;
  Fmt.pf ppf "locking is FIFO-clean: %b@\n" locking_clean;
  Fmt.pf ppf "optimistic never duplicates: %b@\n" optimistic_no_dup;
  Fmt.pf ppf "pessimistic never reorders: %b@\n" pessimistic_no_inv;
  all_atomic && locking_clean && optimistic_no_dup && pessimistic_no_inv

let claims ?seeds () =
  [
    Relax_claims.Claim.report ~id:"spooler/policies" ~kind:Characterization
      ~paper:"Section 4.2 (printing service)"
      ~description:
        "each concurrency-control policy is atomic at its predicted lattice \
         point with the predicted anomaly signature"
      ~detail:"locking / optimistic / pessimistic, k = 1..4, 3 seeds"
      (fun ppf -> run_body ?seeds ppf);
  ]

let group ?seeds () =
  {
    Relax_claims.Registry.gid = "spooler";
    title = "Section 4.2 print spooler under three policies";
    header = "== Section 4.2: print spooler under three policies ==\n";
    claims = claims ?seeds ();
  }
