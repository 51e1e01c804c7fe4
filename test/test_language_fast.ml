open Relax_core
open Relax_objects
open Relax_quorum

(* Cross-validation of the memoized product-state language checker against
   the reference history-enumeration implementation: for every automaton
   pair exercised by `rlx check all`, at depths 1..5, the two must agree
   on inclusion (both directions), equivalence, witness histories and the
   full Section-5 classification. *)

let queue_alphabet = Queue_ops.alphabet (Queue_ops.universe 2)

let classification_tag = function
  | Language.Equal -> "equal"
  | Language.Left_below_right _ -> "left-below-right"
  | Language.Right_below_left _ -> "right-below-left"
  | Language.Incomparable _ -> "incomparable"

let check_agreement name alphabet a b ~depth =
  let ctx fmt = Fmt.str ("%s depth %d: " ^^ fmt) name depth in
  let compare_included dir x y =
    let fast = Language.included x y ~alphabet ~depth
    and slow = Language.included_enum x y ~alphabet ~depth in
    (match (fast, slow) with
    | Ok (), Ok () -> ()
    | Error cf, Error cs ->
      Alcotest.(check bool)
        (ctx "same witness (%s)" dir)
        true
        (History.equal cf.Language.history cs.Language.history)
    | Ok (), Error _ | Error _, Ok () ->
      Alcotest.fail (ctx "inclusion disagreement (%s)" dir));
    Result.is_ok slow
  in
  let incl_ab = compare_included "a<=b" a b in
  let incl_ba = compare_included "b<=a" b a in
  let efast = Language.equivalent a b ~alphabet ~depth
  and eslow = Language.equivalent_enum a b ~alphabet ~depth in
  Alcotest.(check bool)
    (ctx "equivalence") (Result.is_ok eslow) (Result.is_ok efast);
  let expected =
    match (incl_ab, incl_ba) with
    | true, true -> "equal"
    | true, false -> "left-below-right"
    | false, true -> "right-below-left"
    | false, false -> "incomparable"
  in
  Alcotest.(check string)
    (ctx "classification") expected
    (classification_tag (Language.classify a b ~alphabet ~depth))

(* [~equal:true] additionally requires the two languages to coincide. *)
let pair ?(alphabet = queue_alphabet) ?(max_depth = 5) ?(equal = false) name a
    b =
  Alcotest.test_case name `Quick (fun () ->
      for depth = 1 to max_depth do
        check_agreement name alphabet a b ~depth;
        if equal then
          Alcotest.(check bool)
            (Fmt.str "%s depth %d: equal languages" name depth)
            true
            (Language.equivalent_bool a b ~alphabet ~depth)
      done)

let q1_q2 = Relation.union Instances.q1 Instances.q2
let a1_a2 = Relation.union Instances.a1 Instances.a2

(* QCA pairs are built over the views-abstracted automata — the form the
   check suite uses; views-vs-history-state agreement has its own pairs
   below. *)
let pq_qca rel =
  Qca.automaton_views ~alphabet:queue_alphabet Instances.pq_spec_eta rel

let pq_qca' rel =
  Qca.automaton_views ~alphabet:queue_alphabet Instances.pq_spec_eta' rel

let fifo_qca rel =
  Qca.automaton_views ~alphabet:queue_alphabet Instances.fifo_spec_eta rel

let account_alphabet = Account.alphabet [ 1; 2 ]

let account_qca rel =
  Qca.automaton_views ~alphabet:account_alphabet Instances.account_spec rel

let pq_pairs =
  [
    pair "QCA(PQ,{Q1,Q2},eta) vs PQ" (pq_qca q1_q2) Pqueue.automaton;
    pair "QCA(PQ,{Q1},eta) vs MPQ" (pq_qca Instances.q1) Mpq.automaton;
    pair "QCA(PQ,{Q2},eta) vs OPQ" (pq_qca Instances.q2) Opq.automaton;
    pair "QCA(PQ,{},eta) vs DegenPQ" (pq_qca Relation.empty) Degen.automaton;
    pair "QCA(MPQ,{Q1},delta*) vs MPQ"
      (Qca.automaton_views ~alphabet:queue_alphabet
         (Qca.spec_of_automaton Mpq.automaton)
         Instances.q1)
      Mpq.automaton;
    pair "QCA(PQ,{Q1,Q2},eta') vs PQ" (pq_qca' q1_q2) Pqueue.automaton;
    pair "QCA(PQ,{Q2},eta') vs DPQ" (pq_qca' Instances.q2) Dpq.automaton;
    pair "QCA(PQ,{Q2},eta') vs QCA(PQ,{Q2},eta)" (pq_qca' Instances.q2)
      (pq_qca Instances.q2);
  ]

let fifo_pairs =
  [
    pair "QCA(FIFO,{Q1,Q2},eta) vs FIFO" (fifo_qca q1_q2) Fifo.automaton;
    pair "QCA(FIFO,{Q1},eta) vs RFQ" (fifo_qca Instances.q1) Rfq.automaton;
    pair "QCA(FIFO,{Q2},eta) vs Bag" (fifo_qca Instances.q2) Bag.automaton;
    pair "QCA(FIFO,{},eta) vs DegenPQ" (fifo_qca Relation.empty)
      Degen.automaton;
  ]

let collapse_pairs =
  [
    pair "Semiqueue_1 vs FIFO" (Semiqueue.automaton 1) Fifo.automaton;
    pair "Stuttering_1 vs FIFO" (Stuttering.automaton 1) Fifo.automaton;
    pair "SSqueue_{1,1} vs FIFO" (Ssqueue.automaton ~j:1 ~k:1) Fifo.automaton;
    pair "SSqueue_{1,3} vs Semiqueue_3"
      (Ssqueue.automaton ~j:1 ~k:3)
      (Semiqueue.automaton 3);
    pair "SSqueue_{3,1} vs Stuttering_3"
      (Ssqueue.automaton ~j:3 ~k:1)
      (Stuttering.automaton 3);
    pair "Semiqueue_1 vs Semiqueue_2" (Semiqueue.automaton 1)
      (Semiqueue.automaton 2);
    pair "Stuttering_1 vs Stuttering_2" (Stuttering.automaton 1)
      (Stuttering.automaton 2);
  ]

let account_pairs =
  [
    pair ~alphabet:account_alphabet "QCA(Account,{A1,A2}) vs Account"
      (account_qca a1_a2) Account.automaton;
    pair ~alphabet:account_alphabet "QCA(Account,{A1,A2}) vs QCA(Account,{A2})"
      (account_qca a1_a2) (account_qca Instances.a2);
    pair ~alphabet:account_alphabet "QCA(Account,{A1}) vs Account"
      (account_qca Instances.a1) Account.automaton;
  ]

(* The views abstraction itself: the views-state automaton must be
   language-equal to the history-state automaton it quotients, for every
   spec kind (eta, eta', delta*, account) and several relations. *)
let views_pairs =
  let hist spec rel = Qca.automaton spec rel in
  let pair ?alphabet ?max_depth = pair ?alphabet ?max_depth ~equal:true in
  [
    pair "views vs history-state: QCA(PQ,{Q1,Q2},eta)" (pq_qca q1_q2)
      (hist Instances.pq_spec_eta q1_q2);
    pair "views vs history-state: QCA(PQ,{Q1},eta)" (pq_qca Instances.q1)
      (hist Instances.pq_spec_eta Instances.q1);
    pair "views vs history-state: QCA(PQ,{Q2},eta')" (pq_qca' Instances.q2)
      (hist Instances.pq_spec_eta' Instances.q2);
    pair "views vs history-state: QCA(FIFO,{Q2},eta_fifo)"
      (fifo_qca Instances.q2)
      (hist Instances.fifo_spec_eta Instances.q2);
    pair "views vs history-state: QCA(MPQ,{Q1},delta*)"
      (Qca.automaton_views ~alphabet:queue_alphabet
         (Qca.spec_of_automaton Mpq.automaton)
         Instances.q1)
      (hist (Qca.spec_of_automaton Mpq.automaton) Instances.q1);
    pair ~alphabet:account_alphabet "views vs history-state: QCA(Account,{A2})"
      (account_qca Instances.a2)
      (hist Instances.account_spec Instances.a2);
    (* the fifo/bottom point: with the empty relation every subset is
       Q-closed, so the history-state side is exponential in the depth —
       depths 1..7 take about half a second on a 2-core host, 1..8 about
       3.5 s *)
    pair ~max_depth:7 "views vs history-state: QCA(FIFO,{},eta_fifo)"
      (fifo_qca Relation.empty)
      (hist Instances.fifo_spec_eta Relation.empty);
  ]

(* The views automaton memoizes its step inside the automaton value, so
   one value serves every pass over a lattice point.  Reusing it for
   [included a b], [included b a] and [size], twice over, must give the
   verdicts fresh values give, and the second round must count exactly
   the work of the first: the memo saves time, never counted work. *)
let warm_reuse ?(alphabet = queue_alphabet) ?(depth = 5) name mk_a mk_b =
  Alcotest.test_case name `Quick (fun () ->
      let verdict = function
        | Ok () -> "ok"
        | Error c -> Fmt.str "%a" Language.pp_counterexample c
      in
      let round a b =
        Language.Stats.reset ();
        let ab = verdict (Language.included a b ~alphabet ~depth) in
        let ba = verdict (Language.included b a ~alphabet ~depth) in
        let n = Language.size a ~alphabet ~depth in
        let st = Language.Stats.read () in
        ((ab, ba, n), [ st.histories; st.visited; st.memo_hits ])
      in
      let fresh =
        ( verdict (Language.included (mk_a ()) (mk_b ()) ~alphabet ~depth),
          verdict (Language.included (mk_b ()) (mk_a ()) ~alphabet ~depth),
          Language.size (mk_a ()) ~alphabet ~depth )
      in
      let a = mk_a () and b = mk_b () in
      let first, stats1 = round a b in
      let second, stats2 = round a b in
      let verdicts = Alcotest.(triple string string int) in
      Alcotest.check verdicts (name ^ ": first round = fresh") fresh first;
      Alcotest.check verdicts (name ^ ": second round = fresh") fresh second;
      Alcotest.(check (list int))
        (name ^ ": second round counts the same work")
        stats1 stats2)

let warm_pairs =
  [
    warm_reuse "PQ/eta: QCA(PQ,{Q1},eta) vs MPQ"
      (fun () -> pq_qca Instances.q1)
      (fun () -> Mpq.automaton);
    warm_reuse "PQ/eta': QCA(PQ,{Q2},eta') vs QCA(PQ,{Q2},eta)"
      (fun () -> pq_qca' Instances.q2)
      (fun () -> pq_qca Instances.q2);
    warm_reuse "FIFO/eta_fifo: QCA(FIFO,{Q1},eta) vs RFQ"
      (fun () -> fifo_qca Instances.q1)
      (fun () -> Rfq.automaton);
    warm_reuse ~alphabet:account_alphabet
      "Account: QCA(Account,{A2}) vs Account"
      (fun () -> account_qca Instances.a2)
      (fun () -> Account.automaton);
  ]

(* Views states are interned, so equality and hashing are integer
   operations; whatever the representation, the hash must agree with
   equality.  Each sample is two accepted histories, walked through one
   automaton value by the drawn choices, and every pair of states along
   the two walks is checked. *)
let hash_consistent ?(alphabet = queue_alphabet) name a =
  let hash = Option.get (Automaton.hash_state a) in
  let walk choices =
    List.fold_left
      (fun (s, acc) c ->
        match List.concat_map (Automaton.step a s) alphabet with
        | [] -> (s, acc)
        | succs ->
          let s' = List.nth succs (c mod List.length succs) in
          (s', s' :: acc))
      (Automaton.init a, [ Automaton.init a ])
      choices
    |> snd
  in
  let choices = QCheck.(list_of_size (Gen.int_range 0 8) small_nat) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:200 (QCheck.pair choices choices)
       (fun (c1, c2) ->
         let w1 = walk c1 and w2 = walk c2 in
         List.for_all
           (fun s1 ->
             List.for_all
               (fun s2 ->
                 (not (Automaton.equal_state a s1 s2)) || hash s1 = hash s2)
               w2)
           w1))

let hash_tests =
  [
    hash_consistent "hash agrees with equality: QCA(PQ,{Q1},eta)"
      (pq_qca Instances.q1);
    hash_consistent "hash agrees with equality: QCA(PQ,{Q2},eta')"
      (pq_qca' Instances.q2);
    hash_consistent "hash agrees with equality: QCA(FIFO,{},eta_fifo)"
      (fifo_qca Relation.empty);
    hash_consistent "hash agrees with equality: QCA(MPQ,{Q1},delta*)"
      (Qca.automaton_views ~alphabet:queue_alphabet
         (Qca.spec_of_automaton Mpq.automaton)
         Instances.q1);
    hash_consistent ~alphabet:account_alphabet
      "hash agrees with equality: QCA(Account,{A2})"
      (account_qca Instances.a2);
  ]

(* The memoized checker decides inclusion on the product state-set graph
   and only falls back to enumeration to reconstruct a witness; that
   witness — and its rendering — must be byte-identical to what the pure
   enumeration checker reports. *)
let witness_pairs =
  let witness name a b =
    Alcotest.test_case name `Quick (fun () ->
        let depth = 5 in
        let fast = Language.included a b ~alphabet:queue_alphabet ~depth
        and slow = Language.included_enum a b ~alphabet:queue_alphabet ~depth in
        match (fast, slow) with
        | Error cf, Error cs ->
          Alcotest.(check string)
            (name ^ ": rendered witness identical")
            (Fmt.str "%a" Language.pp_counterexample cs)
            (Fmt.str "%a" Language.pp_counterexample cf)
        | _ -> Alcotest.fail (name ^ ": expected a failing inclusion"))
  in
  [
    witness "MPQ not below PQ" Mpq.automaton Pqueue.automaton;
    witness "Bag not below FIFO" Bag.automaton Fifo.automaton;
    witness "Semiqueue_2 not below Semiqueue_1" (Semiqueue.automaton 2)
      (Semiqueue.automaton 1);
  ]

let () =
  Alcotest.run "language_fast"
    [
      ("pq", pq_pairs);
      ("fifo", fifo_pairs);
      ("collapses", collapse_pairs);
      ("account", account_pairs);
      ("views", views_pairs);
      ("warm-reuse", warm_pairs);
      ("hash-consistency", hash_tests);
      ("witness-fallback", witness_pairs);
    ]
