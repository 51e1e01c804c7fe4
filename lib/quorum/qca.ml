open Relax_core

(* Quorum consensus automata (Section 3.2).

   Given a specification of a simple object automaton A (its pre- and
   postconditions and an evaluation of histories to states) and a quorum
   intersection relation Q, QCA(A,Q) accepts H . p whenever some Q-view G
   of H for p admits states s ∈ eval(G) and s' ∈ eval(G . p) with
   p.pre(s) and p.post(s, s').  The automaton's own state is the history
   accepted so far.

   With eval = delta*, this is the paper's QCA(A,Q); substituting an
   evaluation function eta (total on all sequences) gives QCA(A,Q,eta). *)

type 'v spec = {
  spec_name : string;
  eval : History.t -> 'v list;
  (* When the evaluation is incremental — eval (G . p) = extend (eval G) p
     — the spec supports the views-abstracted automaton below. *)
  extend : ('v list -> Op.t -> 'v list) option;
  pre : 'v -> Op.invocation -> bool;
  post : 'v -> Op.t -> 'v -> bool;
  equal : 'v -> 'v -> bool;
  hash : ('v -> int) option;
}

let make_spec ?hash ?extend ~name ~eval ~pre ~post ~equal () =
  { spec_name = name; eval; extend; pre; post; equal; hash }

(* The specification induced by an automaton: eval is delta* (incremental
   by definition), and the pre/post conjunction is exactly the transition
   relation. *)
let spec_of_automaton (a : 'v Automaton.t) =
  {
    spec_name = Automaton.name a;
    eval = Automaton.run a;
    extend = Some (fun states p -> Automaton.step_set a states p);
    pre = (fun _ _ -> true);
    post =
      (fun s p s' ->
        List.exists (Automaton.equal_state a s') (Automaton.step a s p));
    equal = Automaton.equal_state a;
    hash = Automaton.hash_state a;
  }

(* The specification of an automaton A with its delta* replaced by an
   evaluation function eta total on arbitrary sequences, given as a left
   fold so it extends incrementally. *)
let spec_with_eta ?hash ~init ~step ~pre ~post ~equal ~name () =
  {
    spec_name = name;
    eval = (fun h -> [ List.fold_left step init h ]);
    extend = Some (fun vs p -> List.map (fun v -> step v p) vs);
    pre;
    post;
    equal;
    hash;
  }

let accepts_next spec rel (h : History.t) (p : Op.t) =
  let i = Op.invocation p in
  List.exists
    (fun g ->
      let before = spec.eval g and after = spec.eval (History.append g p) in
      List.exists
        (fun s ->
          spec.pre s i
          && List.exists (fun s' -> spec.post s p s') after)
        before)
    (View.views rel h i)

(* The memoizing QCA automaton.

   The naive [accepts_next] above regenerates and re-filters all 2^|H|
   subsets of H on every step.  The automaton below instead maintains, per
   accepted history, the list of its Q-closed position sets, extended
   incrementally: a subset of [H . p] is Q-closed iff it is a Q-closed
   subset of [H], or it is [G ∪ {|H|}] for a Q-closed [G] of [H] that
   contains every earlier position related to [inv(p)].  The Q-views of
   [H] for [i] are then exactly the Q-closed sets containing [i]'s
   required positions (a closed superset of the required positions always
   contains their Q-closure).  Evaluations of view histories — shared
   massively between steps and between inclusion directions — are
   memoized by history.

   The caches are private to the returned automaton value, so the value
   must not be shared across domains; every checker in this repository
   constructs its automata inside the task that uses them. *)

(* [is_sub_sorted a b]: a ⊆ b for sorted int lists. *)
let rec is_sub_sorted a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: a', y :: b' ->
    if x = y then is_sub_sorted a' b'
    else if x > y then is_sub_sorted a b'
    else false

let automaton ?name spec rel : History.t Automaton.t =
  let name =
    match name with
    | Some n -> n
    | None -> Fmt.str "QCA(%s,%s)" spec.spec_name (Relation.name rel)
  in
  (* history -> its Q-closed position sets (each sorted ascending) *)
  let closed_cache : int list list History.Tbl.t = History.Tbl.create 64 in
  History.Tbl.replace closed_cache History.empty [ [] ];
  (* view history -> spec.eval *)
  let eval_cache = History.Tbl.create 1024 in
  let eval g =
    match History.Tbl.find_opt eval_cache g with
    | Some v -> v
    | None ->
      let v = spec.eval g in
      History.Tbl.replace eval_cache g v;
      v
  in
  let extend_closed prefix p =
    let arr = Array.of_list (History.to_list prefix) in
    let req = View.required_positions rel arr (Op.invocation p) in
    let n = Array.length arr in
    let cs = History.Tbl.find closed_cache prefix in
    cs
    @ List.filter_map
        (fun g -> if is_sub_sorted req g then Some (g @ [ n ]) else None)
        cs
  in
  (* Closed sets of [h], rebuilding prefix by prefix on a cache miss (the
     miss only happens when a state is replayed cold, e.g. by
     [Automaton.run] on a stored history). *)
  let rec closed_sets h =
    match History.Tbl.find_opt closed_cache h with
    | Some cs -> cs
    | None ->
      let ops = History.to_list h in
      let prefix = History.of_list (List.filteri (fun j _ -> j < List.length ops - 1) ops) in
      ignore (closed_sets prefix);
      let cs = extend_closed prefix (List.nth ops (List.length ops - 1)) in
      History.Tbl.replace closed_cache h cs;
      cs
  in
  let accepts_next_cached h p =
    let i = Op.invocation p in
    let arr = Array.of_list (History.to_list h) in
    let req = View.required_positions rel arr i in
    closed_sets h
    |> List.exists (fun g ->
           is_sub_sorted req g
           &&
           let view = History.of_list (List.map (fun pos -> arr.(pos)) g) in
           let before = eval view and after = eval (History.append view p) in
           List.exists
             (fun s ->
               spec.pre s i && List.exists (fun s' -> spec.post s p s') after)
             before)
  in
  Automaton.make ~name ~init:History.empty ~equal:History.equal
    ~hash:History.hash ~pp_state:History.pp (fun h p ->
      if accepts_next_cached h p then begin
        let h' = History.append h p in
        if not (History.Tbl.mem closed_cache h') then
          History.Tbl.replace closed_cache h' (extend_closed h p);
        [ h' ]
      end
      else [])

(* The views-abstracted QCA automaton.

   The history-state automaton above still iterates every Q-closed subset
   of its history on each step — exponential in the depth bound for
   sparse relations, because almost every subset is Q-closed.  But
   acceptance of the next operation only ever consults the *evaluations*
   of views, never the views themselves, so for specs with an incremental
   evaluation (eval (G . p) = extend (eval G) p — every eta in this
   repository is a left fold, and delta* is one by definition) the
   automaton can forget the history entirely.

   Its state maps each subset S of the alphabet's invocation classes to

     W(H, S) = { eval G | G Q-closed in H, G ⊇ ∪_{i∈S} required_i(H) }

   — the distinct evaluations of the closed sets containing every
   position S's invocations are required to observe.  The two facts that
   make this a state:

   - acceptance of p with invocation i needs exactly W(H, {i}) (a closed
     superset of i's required positions is precisely a Q-view for i, and
     before/after states are eval G and extend (eval G) p);
   - W steps without the history: the Q-closed sets of H . p are the
     Q-closed sets of H plus the sets G ∪ {|H|} for Q-closed G ⊇
     required_{inv p}(H), so

       W(H.p, S) = extend_p W(H, S ∪ {inv p})            if some i ∈ S
                                                          relates to p
                 | W(H, S) ∪ extend_p W(H, S ∪ {inv p})  otherwise.

   Distinct histories with equal maps accept the same futures, so states
   collapse to the order of the underlying object's state count and the
   memoized pair checker in [Language] gets quotient-automaton leverage
   instead of replaying every accepted history.

   The invocation universe must cover every operation the automaton will
   ever be stepped with; stepping outside it raises.

   Representation.  Everything the step touches is hash-consed.  Each
   distinct evaluation (a ['v list], compared as a set under
   [spec.equal]) gets a dense id; an entry W(H, S) is the sorted list of
   its evaluations' ids, so the union above is a merge; and each
   distinct map — the array of entries — is interned in turn, so a state
   is just the id of its map and [equal]/[hash] are integer operations.
   [extend] and the acceptance test run once per (evaluation, operation)
   and the step once per (state, operation): every pass over one
   automaton value — both directions of an equivalence, the [size]
   detail, the lattice checks through [Relaxation]'s phi cache,
   simulation synthesis and certification — reads one transition table.

   As for {!automaton}, these tables are private to the returned value:
   it must be built inside the task that uses it and never shared across
   domains, and its states mean nothing to any other automaton value. *)

type 'v views_state = int

(* A memo from dense ids to ints, growing on write; [unknown] marks a
   slot never written. *)
module Memo = struct
  type t = { mutable slots : int array }

  let unknown = min_int
  let create () = { slots = [||] }
  let get t i = if i < Array.length t.slots then t.slots.(i) else unknown

  let set t i v =
    let n = Array.length t.slots in
    if i >= n then begin
      let slots = Array.make (max (i + 1) (2 * n)) unknown in
      Array.blit t.slots 0 slots 0 n;
      t.slots <- slots
    end;
    t.slots.(i) <- v
end

(* Maps of sorted evaluation-id lists, interned structurally. *)
module Entries = Hashtbl.Make (struct
  type t = int list array

  let equal a b = Array.for_all2 (List.equal Int.equal) a b

  let hash a =
    Array.fold_left
      (fun h l -> List.fold_left (fun h x -> (h * 31) + x) ((h * 131) + 1) l)
      7 a
    land max_int
end)

module Ops = Hashtbl.Make (struct
  type t = Op.t

  let equal = Op.equal
  let hash = Op.hash
end)

(* What one operation needs, and its per-id memos. *)
type op_info = {
  op : Op.t;
  bit : int;  (* the singleton mask of its invocation class *)
  rel_mask : int;  (* the classes whose invocations relate to it *)
  ext : Memo.t;  (* evaluation id -> id of its extension by [op] *)
  acc : Memo.t;  (* evaluation id -> 1 iff it admits [op], else 0 *)
  succ : Memo.t;  (* state id -> successor id, -1 when undefined *)
}

(* [union a b] of sorted, duplicate-free int lists. *)
let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    if x = y then x :: union a' b'
    else if x < y then x :: union a' b
    else y :: union a b'

let automaton_views ?name ~(alphabet : Op.t list) spec rel :
    'v views_state Automaton.t =
  let extend =
    match spec.extend with
    | Some f -> f
    | None ->
      invalid_arg "Qca.automaton_views: specification has no incremental eval"
  in
  let invs =
    List.fold_left
      (fun acc p ->
        let i = Op.invocation p in
        if List.exists (Op.equal_invocation i) acc then acc else acc @ [ i ])
      [] alphabet
    |> Array.of_list
  in
  let k = Array.length invs in
  if k > 20 then invalid_arg "Qca.automaton_views: too many invocation classes";
  let size = 1 lsl k in
  let inv_index i =
    let rec go j =
      if j = k then
        invalid_arg
          (Fmt.str "Qca.automaton_views: operation outside the alphabet (%a)"
             Op.pp_invocation i)
      else if Op.equal_invocation invs.(j) i then j
      else go (j + 1)
    in
    go 0
  in
  (* Evaluations, interned.  They are compared as sets — delta* may list
     states of a view in any order — so each is deduplicated before its
     order-independent bucket hash is taken; the bucket is then searched
     with [spec.equal], so a bad hash costs time, never correctness. *)
  let evals : (int, 'v list) Hashtbl.t = Hashtbl.create 256 in
  let eval_buckets : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let dedup vs =
    List.rev
      (List.fold_left
         (fun acc v -> if List.exists (spec.equal v) acc then acc else v :: acc)
         [] vs)
  in
  let bucket_hash =
    match spec.hash with
    | None -> fun _ -> 0
    | Some hv -> List.fold_left (fun h v -> h + hv v) 0
  in
  let vlist_equal va vb =
    List.for_all (fun a -> List.exists (spec.equal a) vb) va
    && List.for_all (fun b -> List.exists (spec.equal b) va) vb
  in
  let eval_id vs =
    let vs = dedup vs in
    let h = bucket_hash vs in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt eval_buckets h) in
    match
      List.find_opt (fun e -> vlist_equal (Hashtbl.find evals e) vs) bucket
    with
    | Some e -> e
    | None ->
      let e = Hashtbl.length evals in
      Hashtbl.add evals e vs;
      Hashtbl.replace eval_buckets h (e :: bucket);
      e
  in
  (* States, interned: id -> map, and map -> id. *)
  let states : (int, int list array) Hashtbl.t = Hashtbl.create 256 in
  let state_ids = Entries.create 256 in
  let state_id w =
    match Entries.find_opt state_ids w with
    | Some s -> s
    | None ->
      let s = Hashtbl.length states in
      Hashtbl.add states s w;
      Entries.add state_ids w s;
      s
  in
  let op_infos = Ops.create 16 in
  let info_of p =
    match Ops.find_opt op_infos p with
    | Some o -> o
    | None ->
      let rel_mask = ref 0 in
      Array.iteri
        (fun j i ->
          if Relation.related rel i p then
            rel_mask := !rel_mask lor (1 lsl j))
        invs;
      let o =
        {
          op = p;
          bit = 1 lsl inv_index (Op.invocation p);
          rel_mask = !rel_mask;
          ext = Memo.create ();
          acc = Memo.create ();
          succ = Memo.create ();
        }
      in
      Ops.add op_infos p o;
      o
  in
  (* the alphabet's own operation values are found by physical equality,
     any other value structurally *)
  let known = List.map (fun p -> (p, info_of p)) alphabet in
  let op_info p =
    match List.assq_opt p known with Some o -> o | None -> info_of p
  in
  (* Fills both per-evaluation memos of [o] at [e]. *)
  let evaluate o e =
    let before = Hashtbl.find evals e in
    let after = extend before o.op in
    let i = Op.invocation o.op in
    Memo.set o.ext e (eval_id after);
    Memo.set o.acc e
      (if
         List.exists
           (fun s ->
             spec.pre s i && List.exists (fun s' -> spec.post s o.op s') after)
           before
       then 1
       else 0)
  in
  let memo o m e =
    if Memo.get m e = Memo.unknown then evaluate o e;
    Memo.get m e
  in
  let successor o s =
    let w = Hashtbl.find states s in
    if not (List.exists (fun e -> memo o o.acc e = 1) w.(o.bit)) then -1
    else
      state_id
        (Array.init size (fun mask ->
             let extended =
               List.sort_uniq Int.compare
                 (List.map (memo o o.ext) w.(mask lor o.bit))
             in
             if mask land o.rel_mask <> 0 then extended
             else union w.(mask) extended))
  in
  let step s p =
    let o = op_info p in
    let s' =
      match Memo.get o.succ s with
      | s' when s' <> Memo.unknown -> s'
      | _ ->
        let s' = successor o s in
        Memo.set o.succ s s';
        s'
    in
    if s' < 0 then [] else [ s' ]
  in
  let name =
    match name with
    | Some n -> n
    | None -> Fmt.str "QCA(%s,%s)" spec.spec_name (Relation.name rel)
  in
  let init = state_id (Array.make size [ eval_id (spec.eval History.empty) ]) in
  (* ids are canonical, so the identity is a perfect hash — carried only
     when the spec is hashed, since [Language] picks its algorithm from
     that field *)
  let hash = Option.map (fun _ (s : int) -> s) spec.hash in
  Automaton.make ~name ~init ~equal:Int.equal ?hash step
