open Relax_sim

(* Tests for the simulation substrate: PRNG determinism and statistics,
   heap ordering, engine scheduling semantics, and the network fault
   model. *)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
        for _ = 1 to 100 do
          Alcotest.(check int64)
            "draw" (Rng.next_int64 a) (Rng.next_int64 b)
        done);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
        let same = ref 0 in
        for _ = 1 to 50 do
          if Int64.equal (Rng.next_int64 a) (Rng.next_int64 b) then incr same
        done;
        Alcotest.(check bool) "mostly different" true (!same < 3));
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let parent = Rng.create ~seed:5 in
        let child = Rng.split parent in
        Alcotest.(check bool)
          "differ" true
          (not (Int64.equal (Rng.next_int64 parent) (Rng.next_int64 child))));
    Alcotest.test_case "split_n children are pure and decorrelated" `Quick
      (fun () ->
        (* Each child is a function of (parent state, index) only: the
           order in which children are later drained must not matter. *)
        let drain rng = List.init 20 (fun _ -> Rng.next_int64 rng) in
        let a = Rng.split_n (Rng.create ~seed:11) 4 in
        let b = Rng.split_n (Rng.create ~seed:11) 4 in
        let fwd = Array.map drain a in
        let bwd = Array.map drain (Array.init 4 (fun i -> b.(3 - i))) in
        Array.iteri
          (fun i seq ->
            Alcotest.(check (list int64))
              (Fmt.str "child %d" i) seq
              bwd.(3 - i))
          fwd;
        for i = 0 to 3 do
          for j = i + 1 to 3 do
            Alcotest.(check bool)
              (Fmt.str "children %d and %d diverge" i j)
              true
              (List.exists2 (fun x y -> not (Int64.equal x y)) fwd.(i) fwd.(j))
          done
        done);
    Alcotest.test_case "split_n streams are domain-independent" `Quick
      (fun () ->
        (* The per-domain determinism regression: a child handed to a
           spawned domain yields the same sequence it would on the main
           domain, whatever the interleaving. *)
        let domains = 3 in
        let expect =
          Array.map
            (fun rng -> Array.init 25 (fun _ -> Rng.next_int64 rng))
            (Rng.split_n (Rng.create ~seed:12) domains)
        in
        let streams = Rng.split_n (Rng.create ~seed:12) domains in
        let got =
          Array.init domains (fun d ->
              Domain.spawn (fun () ->
                  Array.init 25 (fun _ -> Rng.next_int64 streams.(d))))
          |> Array.map Domain.join
        in
        Array.iteri
          (fun d seq ->
            Alcotest.(check (array int64)) (Fmt.str "domain %d" d) expect.(d) seq)
          got);
    Alcotest.test_case "int respects bounds" `Quick (fun () ->
        let r = Rng.create ~seed:3 in
        for _ = 1 to 1000 do
          let x = Rng.int r 7 in
          Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
        done;
        Alcotest.check_raises "zero bound"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int r 0)));
    Alcotest.test_case "unit_float in [0,1)" `Quick (fun () ->
        let r = Rng.create ~seed:4 in
        for _ = 1 to 1000 do
          let x = Rng.unit_float r in
          Alcotest.(check bool) "in range" true (x >= 0.0 && x < 1.0)
        done);
    Alcotest.test_case "bool frequency tracks p" `Quick (fun () ->
        let r = Rng.create ~seed:6 in
        let hits = ref 0 in
        let n = 20_000 in
        for _ = 1 to n do
          if Rng.bool r 0.3 then incr hits
        done;
        let freq = float_of_int !hits /. float_of_int n in
        Alcotest.(check bool)
          (Fmt.str "freq %.3f near 0.3" freq)
          true
          (Float.abs (freq -. 0.3) < 0.02));
    Alcotest.test_case "exponential has the right mean" `Quick (fun () ->
        let r = Rng.create ~seed:8 in
        let n = 20_000 in
        let total = ref 0.0 in
        for _ = 1 to n do
          total := !total +. Rng.exponential r ~rate:0.5
        done;
        let mean = !total /. float_of_int n in
        Alcotest.(check bool)
          (Fmt.str "mean %.3f near 2.0" mean)
          true
          (Float.abs (mean -. 2.0) < 0.1));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let r = Rng.create ~seed:9 in
        let arr = Array.init 20 Fun.id in
        Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort Int.compare sorted;
        Alcotest.(check (array int)) "same elements" (Array.init 20 Fun.id) sorted);
    Alcotest.test_case "sample size and membership" `Quick (fun () ->
        let r = Rng.create ~seed:10 in
        let l = List.init 10 Fun.id in
        let s = Rng.sample r 4 l in
        Alcotest.(check int) "size" 4 (List.length s);
        Alcotest.(check bool)
          "subset" true
          (List.for_all (fun x -> List.mem x l) s);
        Alcotest.(check int)
          "distinct" 4
          (List.length (List.sort_uniq Int.compare s)));
    Alcotest.test_case "int is uniform (chi-square smoke)" `Quick (fun () ->
        (* regression for the modulo-bias fix: 100k draws over 10 cells;
           chi-square upper critical value at df=9, p=0.001 is 27.88, so
           a biased generator fails while a uniform one passes with
           overwhelming probability at this fixed seed *)
        let r = Rng.create ~seed:11 in
        let bound = 10 and n = 100_000 in
        let cells = Array.make bound 0 in
        for _ = 1 to n do
          let x = Rng.int r bound in
          cells.(x) <- cells.(x) + 1
        done;
        let expected = float_of_int n /. float_of_int bound in
        let chi2 =
          Array.fold_left
            (fun acc c ->
              let d = float_of_int c -. expected in
              acc +. (d *. d /. expected))
            0.0 cells
        in
        Alcotest.(check bool)
          (Fmt.str "chi-square %.2f < 27.88" chi2)
          true (chi2 < 27.88));
    Alcotest.test_case "pick_arr draws the same stream as pick" `Quick
      (fun () ->
        let a = Rng.create ~seed:12 and b = Rng.create ~seed:12 in
        let l = List.init 17 Fun.id in
        let arr = Array.of_list l in
        for _ = 1 to 200 do
          Alcotest.(check int) "same choice" (Rng.pick a l) (Rng.pick_arr b arr)
        done;
        Alcotest.check_raises "empty array"
          (Invalid_argument "Rng.pick_arr: empty array") (fun () ->
            ignore (Rng.pick_arr a [||])));
  ]

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let heap_tests =
  [
    Alcotest.test_case "pops in ascending order" `Quick (fun () ->
        let h = Heap.create ~compare:Int.compare () in
        List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
        Alcotest.(check (list int))
          "sorted" [ 0; 1; 1; 3; 4; 5; 9 ]
          (Heap.to_sorted_list h));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let h = Heap.create ~compare:Int.compare () in
        Heap.push h 2;
        Heap.push h 1;
        Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
        Alcotest.(check int) "size" 2 (Heap.size h));
    Alcotest.test_case "empty heap" `Quick (fun () ->
        let h = Heap.create ~compare:Int.compare () in
        Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
        Alcotest.(check (option int)) "pop" None (Heap.pop h));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"heap sorts any input" ~count:100
         (QCheck.list QCheck.small_int) (fun l ->
           let h = Heap.create ~compare:Int.compare () in
           List.iter (Heap.push h) l;
           Heap.to_sorted_list h = List.sort Int.compare l));
    Alcotest.test_case "pop clears the vacated slot" `Quick (fun () ->
        (* boxed elements so aliasing is observable by physical equality;
           the first push is deliberately not the minimum, since the
           first-ever element is the retained witness *)
        let h = Heap.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) () in
        let popped = (1, "min") in
        Heap.push h (5, "witness");
        Heap.push h popped;
        Heap.push h (9, "rest");
        Alcotest.(check (option (pair int string)))
          "pop min" (Some popped) (Heap.pop h);
        Alcotest.(check int)
          "no slot aliases the popped element" 0
          (Heap.slots_retaining h (fun x -> x == popped));
        (* remaining elements still pop correctly *)
        Alcotest.(check (option (pair int string)))
          "next" (Some (5, "witness")) (Heap.pop h));
    Alcotest.test_case "exn accessors match the option ones" `Quick (fun () ->
        let h = Heap.create ~compare:Int.compare () in
        Alcotest.check_raises "min_exn empty" Heap.Empty (fun () ->
            ignore (Heap.min_exn h));
        Alcotest.check_raises "pop_exn empty" Heap.Empty (fun () ->
            ignore (Heap.pop_exn h));
        List.iter (Heap.push h) [ 3; 1; 2 ];
        Alcotest.(check int) "min_exn" 1 (Heap.min_exn h);
        Alcotest.(check int) "pop_exn" 1 (Heap.pop_exn h);
        Alcotest.(check int) "next min" 2 (Heap.min_exn h));
    Alcotest.test_case "no retention at load scale" `Quick (fun () ->
        (* 100k boxed pushes and pops through a drained-and-refilled
           heap: afterwards no backing slot may alias anything but the
           single retained witness *)
        let h = Heap.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) () in
        let witness = ref None in
        for wave = 0 to 9 do
          for i = 1 to 10_000 do
            let x = ((wave * 10_000) + i, "payload") in
            if !witness = None then witness := Some x;
            Heap.push h x
          done;
          while not (Heap.is_empty h) do
            ignore (Heap.pop_exn h)
          done
        done;
        let w = Option.get !witness in
        Alcotest.(check int)
          "only witness slots remain" 0
          (Heap.slots_retaining h (fun x -> not (x == w))));
  ]

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "events run in time order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~delay:10.0 (fun () -> log := "b" :: !log);
        Engine.schedule e ~delay:5.0 (fun () -> log := "a" :: !log);
        Engine.schedule e ~delay:20.0 (fun () -> log := "c" :: !log);
        Engine.run e;
        Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log));
    Alcotest.test_case "same-instant events run FIFO" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 5 do
          Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
        done;
        Engine.run e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    Alcotest.test_case "events may schedule events" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec chain n =
          if n > 0 then
            Engine.schedule e ~delay:1.0 (fun () ->
                incr count;
                chain (n - 1))
        in
        chain 5;
        Engine.run e;
        Alcotest.(check int) "all ran" 5 !count;
        Alcotest.(check (float 0.001)) "time advanced" 5.0 (Engine.now e));
    Alcotest.test_case "until stops early" `Quick (fun () ->
        let e = Engine.create () in
        let ran = ref false in
        Engine.schedule e ~delay:100.0 (fun () -> ran := true);
        Engine.run ~until:50.0 e;
        Alcotest.(check bool) "not yet" false !ran;
        Alcotest.(check int) "pending" 1 (Engine.pending_events e));
    Alcotest.test_case "past scheduling raises" `Quick (fun () ->
        let e = Engine.create () in
        Alcotest.check_raises "negative delay"
          (Invalid_argument "Engine.schedule: negative delay") (fun () ->
            Engine.schedule e ~delay:(-1.0) (fun () -> ())));
    Alcotest.test_case "until advances the clock past queued events" `Quick
      (fun () ->
        (* run ~until must leave now = until even when later events remain
           queued, so an interleaved schedule ~delay measures from the
           bound, not from the last executed event *)
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~delay:5.0 (fun () -> log := (5, Engine.now e) :: !log);
        Engine.schedule e ~delay:100.0 (fun () ->
            log := (100, Engine.now e) :: !log);
        Engine.run ~until:50.0 e;
        Alcotest.(check (float 0.001)) "clock at bound" 50.0 (Engine.now e);
        Engine.schedule e ~delay:10.0 (fun () -> log := (60, Engine.now e) :: !log);
        Engine.run e;
        Alcotest.(check (list (pair int (float 0.001))))
          "delays measured from the bound"
          [ (5, 5.0); (60, 60.0); (100, 100.0) ]
          (List.rev !log));
    Alcotest.test_case "max_events stop leaves the clock at the last event"
      `Quick (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~delay:1.0 (fun () -> ());
        Engine.schedule e ~delay:2.0 (fun () -> ());
        Engine.run ~until:50.0 ~max_events:1 e;
        Alcotest.(check (float 0.001)) "clock at event" 1.0 (Engine.now e));
    Alcotest.test_case
      "budget exhausted on the last in-bound event still reaches until"
      `Quick (fun () ->
        (* regression: when max_events runs out exactly as the last event
           at or before [until] executes, the stop is on the time bound —
           the clock must advance to [until], not stick at the event.
           The old loop conflated the two stop reasons and a subsequent
           schedule ~delay measured from 1.0 instead of 50.0 *)
        let e = Engine.create () in
        Engine.schedule e ~delay:1.0 (fun () -> ());
        Engine.schedule e ~delay:100.0 (fun () -> ());
        Engine.run ~until:50.0 ~max_events:1 e;
        Alcotest.(check (float 0.001)) "clock at bound" 50.0 (Engine.now e);
        Alcotest.(check int) "later event still queued" 1
          (Engine.pending_events e);
        let at = ref nan in
        Engine.schedule e ~delay:10.0 (fun () -> at := Engine.now e);
        Engine.run e;
        Alcotest.(check (float 0.001)) "delay from the bound" 60.0 !at);
    Alcotest.test_case "event records are recycled" `Quick (fun () ->
        (* drain-and-refill waves reuse freelist records; behavior must
           be indistinguishable from fresh allocations *)
        let e = Engine.create () in
        let count = ref 0 in
        for wave = 1 to 3 do
          let log = ref [] in
          for i = 1 to 100 do
            Engine.schedule e ~delay:(float_of_int i) (fun () ->
                incr count;
                log := i :: !log)
          done;
          Engine.run e;
          Alcotest.(check (list int))
            (Fmt.str "wave %d in order" wave)
            (List.init 100 (fun i -> i + 1))
            (List.rev !log)
        done;
        Alcotest.(check int) "all ran" 300 !count);
  ]

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let network_tests =
  [
    Alcotest.test_case "delivery to an up site" `Quick (fun () ->
        let e = Engine.create () in
        let net = Network.create e ~sites:3 in
        let got = ref false in
        Network.send net ~src:0 ~dst:1 (fun () -> got := true);
        Engine.run e;
        Alcotest.(check bool) "delivered" true !got);
    Alcotest.test_case "crashed destination drops" `Quick (fun () ->
        let e = Engine.create () in
        let net = Network.create e ~sites:3 in
        Network.crash net 1;
        let got = ref false in
        Network.send net ~src:0 ~dst:1 (fun () -> got := true);
        Engine.run e;
        Alcotest.(check bool) "dropped" false !got;
        let _, _, dropped = Network.stats net in
        Alcotest.(check int) "counted" 1 dropped);
    Alcotest.test_case "partition separates cells and heal restores" `Quick
      (fun () ->
        let e = Engine.create () in
        let net = Network.create e ~sites:4 in
        Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
        Alcotest.(check bool) "0-1 connected" true (Network.connected net 0 1);
        Alcotest.(check bool) "0-2 separated" false (Network.connected net 0 2);
        let got = ref false in
        Network.send net ~src:0 ~dst:2 (fun () -> got := true);
        Engine.run e;
        Alcotest.(check bool) "cross-cell dropped" false !got;
        Network.heal net;
        Network.send net ~src:0 ~dst:2 (fun () -> got := true);
        Engine.run e;
        Alcotest.(check bool) "after heal" true !got);
    Alcotest.test_case "partition state at delivery time decides" `Quick
      (fun () ->
        let e = Engine.create () in
        let net = Network.create e ~sites:2 in
        let got = ref false in
        Network.send net ~src:0 ~dst:1 (fun () -> got := true);
        (* partition immediately, before the in-flight message lands *)
        Network.partition net [ [ 0 ]; [ 1 ] ];
        Engine.run e;
        Alcotest.(check bool) "in-flight message lost" false !got);
    Alcotest.test_case "crash and recover flip up status" `Quick (fun () ->
        let e = Engine.create () in
        let net = Network.create e ~sites:3 in
        Network.crash net 2;
        Alcotest.(check (list int)) "up sites" [ 0; 1 ] (Network.up_sites net);
        Network.recover net 2;
        Alcotest.(check int) "up count" 3 (Network.up_count net));
    Alcotest.test_case "loss probability drops everything at 1.0" `Quick
      (fun () ->
        let e = Engine.create () in
        let net = Network.create ~drop_probability:1.0 e ~sites:2 in
        let got = ref false in
        Network.send net ~src:0 ~dst:1 (fun () -> got := true);
        Engine.run e;
        Alcotest.(check bool) "lost" false !got);
    Alcotest.test_case "crash and recover reject bad sites" `Quick (fun () ->
        (* regression: these two mutators skipped the bounds check the
           other per-site mutators perform *)
        let e = Engine.create () in
        let net = Network.create e ~sites:3 in
        Alcotest.check_raises "crash high"
          (Invalid_argument "Network.crash: bad site") (fun () ->
            Network.crash net 3);
        Alcotest.check_raises "crash negative"
          (Invalid_argument "Network.crash: bad site") (fun () ->
            Network.crash net (-1));
        Alcotest.check_raises "recover high"
          (Invalid_argument "Network.recover: bad site") (fun () ->
            Network.recover net 3);
        Alcotest.check_raises "recover negative"
          (Invalid_argument "Network.recover: bad site") (fun () ->
            Network.recover net (-1));
        (* idempotence: repeated crash/recover cannot drift the up count *)
        Network.crash net 1;
        Network.crash net 1;
        Alcotest.(check int) "one site down" 2 (Network.up_count net);
        Network.recover net 1;
        Network.recover net 1;
        Alcotest.(check int) "all up" 3 (Network.up_count net));
    Alcotest.test_case "duplicated copies face the same loss draw" `Quick
      (fun () ->
        (* regression for the dup/loss asymmetry: with dup certain and
           drop at 0.5, every send makes exactly two physical copies and
           each copy independently survives or drops, so the counters
           must conserve copies: delivered + dropped = sent + duplicated
           — and at these odds both outcomes must actually occur *)
        let e = Engine.create () in
        let net = Network.create ~drop_probability:0.5 e ~sites:2 in
        Network.set_dup_probability net 1.0;
        let sends = 400 in
        for _ = 1 to sends do
          Network.send net ~src:0 ~dst:1 (fun () -> ())
        done;
        Engine.run e;
        let sent, delivered, dropped = Network.stats net in
        Alcotest.(check int) "sent" sends sent;
        Alcotest.(check int) "every send duplicated" sends
          (Network.duplicated net);
        Alcotest.(check int)
          "copies conserved" (sends + sends)
          (delivered + dropped);
        Alcotest.(check bool) "some copies survive" true (delivered > 0);
        Alcotest.(check bool) "some copies drop" true (dropped > 0));
    Alcotest.test_case "send_batch delivers per copy" `Quick (fun () ->
        let e = Engine.create () in
        let net = Network.create e ~sites:4 in
        Network.crash net 2;
        let got = Array.make 4 false in
        Network.send_batch net ~src:0
          (Array.init 3 (fun i ->
               let dst = i + 1 in
               (dst, fun () -> got.(dst) <- true)));
        Engine.run e;
        Alcotest.(check bool) "site 1 got it" true got.(1);
        Alcotest.(check bool) "crashed site 2 did not" false got.(2);
        Alcotest.(check bool) "site 3 got it" true got.(3);
        let sent, delivered, dropped = Network.stats net in
        Alcotest.(check int) "sent counts the batch" 3 sent;
        Alcotest.(check int) "two delivered" 2 delivered;
        Alcotest.(check int) "one dropped" 1 dropped);
    Alcotest.test_case "send_batch rides one engine event" `Quick (fun () ->
        let e = Engine.create () in
        let net = Network.create e ~sites:5 in
        Network.send_batch net ~src:0
          (Array.init 4 (fun i -> (i + 1, fun () -> ())));
        Alcotest.(check int) "single delivery event" 1 (Engine.pending_events e);
        Engine.run e;
        let _, delivered, _ = Network.stats net in
        Alcotest.(check int) "all four delivered" 4 delivered);
  ]

(* ------------------------------------------------------------------ *)
(* Shard                                                               *)
(* ------------------------------------------------------------------ *)

let shard_tests =
  [
    Alcotest.test_case "seeds decorrelate and runs are deterministic" `Quick
      (fun () ->
        let run () =
          let sharded =
            Shard.create ~seed:7 ~shards:4 (fun _ engine ->
                let rng = Rng.split (Engine.rng engine) in
                let count = ref 0 in
                let rec tick () =
                  incr count;
                  if !count < 50 then
                    Engine.schedule engine ~delay:(Rng.exponential rng ~rate:1.0)
                      tick
                in
                Engine.schedule engine ~delay:(Rng.exponential rng ~rate:1.0)
                  tick;
                count)
          in
          Shard.run sharded (fun _ engine count ->
              (!count, Engine.now engine))
        in
        let a = run () and b = run () in
        Alcotest.(check (list (pair int (float 0.0)))) "identical reruns" a b;
        (* distinct shard seeds: the four finish times must not coincide *)
        let times = List.map snd a |> List.sort_uniq Float.compare in
        Alcotest.(check int) "four distinct clocks" 4 (List.length times));
    Alcotest.test_case "jobs count cannot change results" `Quick (fun () ->
        let work jobs =
          let sharded =
            Shard.create ~seed:3 ~shards:8 (fun i engine ->
                let rng = Rng.split (Engine.rng engine) in
                let acc = ref i in
                for _ = 1 to 100 do
                  Engine.schedule engine
                    ~delay:(Rng.exponential rng ~rate:2.0)
                    (fun () -> acc := (7 * !acc) + Rng.int rng 1000)
                done;
                acc)
          in
          Shard.run ~jobs sharded (fun _ _ acc -> !acc)
        in
        Alcotest.(check (list int)) "jobs 1 = jobs 4" (work 1) (work 4));
    Alcotest.test_case "create rejects a non-positive shard count" `Quick
      (fun () ->
        Alcotest.check_raises "zero shards"
          (Invalid_argument "Shard.create: shards must be positive") (fun () ->
            ignore (Shard.create ~shards:0 (fun _ _ -> ()))));
  ]

let () =
  Alcotest.run "sim"
    [
      ("rng", rng_tests);
      ("heap", heap_tests);
      ("engine", engine_tests);
      ("network", network_tests);
      ("shard", shard_tests);
    ]
