open Relax_core
open Relax_objects

(* Experiment F4-2: regenerate the paper's Figure 4-2, the relaxation
   lattice for a three-item semiqueue.  The seven nonempty subsets of
   {C1, C2, C3} are mapped through phi and grouped by (bounded) behavior;
   the paper's table is

     {C1}, {C1,C2}, {C1,C3}, {C1,C2,C3}   Semiqueue_1 (FIFO queue)
     {C2}, {C2,C3}                        Semiqueue_2
     {C3}                                 Semiqueue_3 (bag)

   (the paper's figure omits {C1,C3} — an evident typo, since phi picks
   the lowest index present). *)

type row = { constraint_sets : string list; behavior : string; annotation : string }

let annotation_for k n =
  if k = 1 then "(FIFO queue)"
  else if k = n then "(bag, for n-item queues)"
  else ""

let compute ?(alphabet = Queue_ops.alphabet (Queue_ops.universe 2)) ?(depth = 4)
    ?(n = 3) () =
  let lattice = Lattices.semiqueue ~n in
  let classes = Relaxation.behavior_classes lattice ~alphabet ~depth in
  (* order classes by the semiqueue index of their behavior *)
  let with_index =
    List.map
      (fun (csets, behavior) ->
        let k =
          List.filter_map Lattices.lowest_index csets
          |> List.fold_left min max_int
        in
        (k, csets, behavior))
      classes
  in
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) with_index
  |> List.map (fun (k, csets, behavior) ->
         {
           constraint_sets = List.map Cset.to_string csets;
           behavior;
           annotation = annotation_for k n;
         })

let expected_rows n =
  (* ground truth: subsets grouped by lowest index *)
  List.init n (fun i -> i + 1)
  |> List.map (fun k ->
         let count =
           (* subsets whose lowest index is k: k is present, indices < k
              absent, indices > k free: 2^(n-k) subsets *)
           1 lsl (n - k)
         in
         (k, count))

let run_body ?alphabet ?depth ~n ppf =
  let rows = compute ?alphabet ?depth ~n () in
  Fmt.pf ppf "%-42s %s@\n" "Constraints" "Behavior";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-42s %s %s@\n"
        (String.concat ", " r.constraint_sets)
        r.behavior r.annotation)
    rows;
  (* sanity: the class sizes match the lowest-index grouping *)
  let sizes = List.map (fun r -> List.length r.constraint_sets) rows in
  let expected = List.map snd (expected_rows n) in
  sizes = expected

let claims ?alphabet ?depth ?(n = 3) () =
  [
    Relax_claims.Claim.report ~id:"fig42/lattice" ~kind:Characterization
      ~paper:"Figure 4-2"
      ~description:
        (Fmt.str "Figure 4-2 relaxation lattice for a %d-item semiqueue" n)
      ~detail:
        (Fmt.str "behavior classes grouped by lowest constraint index, n = %d"
           n)
      (run_body ?alphabet ?depth ~n);
  ]

let group ?alphabet ?depth ?(n = 3) () =
  {
    Relax_claims.Registry.gid = "fig42";
    title = "Figure 4-2 relaxation lattice, regenerated";
    header =
      Fmt.str "== Figure 4-2: relaxation lattice for a %d-item semiqueue ==\n"
        n;
    claims = claims ?alphabet ?depth ~n ();
  }
