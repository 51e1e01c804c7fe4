open Relax_core
open Relax_objects
open Relax_quorum

(* The combined environment+object automaton of Section 2.3 and the two
   quorum assignments an adaptive client moves between.  The chaos
   lattice's "adaptive" point (Chaos_scenarios) runs a controller-driven
   client over these: it works at the top of the lattice while every up
   site can assemble the preferred majority quorums and degrades to the
   bottom ("any available site") otherwise.  The controller's mode
   changes are emitted as environment events interleaved with the
   operations:

     Degrade()/Ok()   subsequent operations run at the bottom
     Restore()/Ok()   propagation caught up; the preferred constraints
                      hold again

   Restore fires only after reconvergence: the paper's constraints are
   about intersection with *past* final quorums, so a majority being up
   again does not by itself restore Q2 — degraded writes must first
   propagate to a majority.

   The event+operation history is judged by the combined automaton
   <2^C x STATE, (c0,s0), EVENT ∪ OP, delta>.  The lattice's two
   automata share the present/absent state space of the MPQ (so the
   object state survives mode changes):

     preferred:  Enq inserts into present; Deq transfers best(present)
                 (the priority queue);
     degraded:   Enq inserts into present; Deq transfers any present item
                 or replays any absent one (language-equal to DegenPQ,
                 but tracking which requests are outstanding). *)

let degrade_event = Op.make "Degrade"
let restore_event = Op.make "Restore"

(* Preferred behavior on the shared state: exactly the priority queue. *)
let preferred_tracking =
  Automaton.make ~name:"PQ/tracking" ~init:Mpq.init ~equal:Mpq.equal
    ~hash:Mpq.hash ~pp_state:Mpq.pp (fun (s : Mpq.state) p ->
      match Queue_ops.element p with
      | None -> []
      | Some e ->
        if Queue_ops.is_enq p then
          [ { s with present = Multiset.ins s.present e } ]
        else if Queue_ops.is_deq p then
          match Multiset.best s.present with
          | Some b when Value.equal b e ->
            [
              {
                Mpq.present = Multiset.del s.present e;
                absent = Multiset.ins s.absent e;
              };
            ]
          | Some _ | None -> []
        else [])

(* Degraded behavior on the shared state: serve anything ever enqueued. *)
let degraded_tracking =
  Automaton.make ~name:"Degen/tracking" ~init:Mpq.init ~equal:Mpq.equal
    ~hash:Mpq.hash ~pp_state:Mpq.pp (fun (s : Mpq.state) p ->
      match Queue_ops.element p with
      | None -> []
      | Some e ->
        if Queue_ops.is_enq p then
          [ { s with present = Multiset.ins s.present e } ]
        else if Queue_ops.is_deq p then
          (if Multiset.mem s.present e then
             [
               {
                 Mpq.present = Multiset.del s.present e;
                 absent = Multiset.ins s.absent e;
               };
             ]
           else [])
          @ (if Multiset.mem s.absent e then [ s ] else [])
        else [])

let adaptive_lattice =
  Relaxation.make ~name:"adaptive-PQ" ~constraints:[ "Q1"; "Q2" ]
    ~in_domain:(fun c -> Cset.is_empty c || Cset.cardinal c = 2)
    (fun c ->
      if Cset.cardinal c = 2 then preferred_tracking else degraded_tracking)

let environment =
  Environment.of_event_names ~name:"quorum-weather"
    ~init:(Cset.of_list [ "Q1"; "Q2" ])
    ~events:[ "Degrade"; "Restore" ]
    (fun c p ->
      match Op.name p with
      | "Degrade" -> Cset.empty
      | "Restore" -> Cset.of_list [ "Q1"; "Q2" ]
      | _ -> c)

let combined =
  Environment.combine environment adaptive_lattice ~is_operation:(fun p ->
      Queue_ops.is_enq p || Queue_ops.is_deq p)

(* The degraded assignment: "any available site" thresholds — enqueue
   anywhere, dequeue from whatever single log is reachable. *)
let relaxed_assignment ~n =
  Assignment.make ~n
    [
      (Queue_ops.enq_name, { Assignment.initial = 0; final = 1 });
      (Queue_ops.deq_name, { Assignment.initial = 1; final = 1 });
    ]

(* The preferred assignment: majority quorums for both operations, so
   every pair of quorums intersects (Q1: maj + maj > n, Q2: likewise)
   and strict-mode reads cannot miss strict-mode writes. *)
let preferred_assignment ~n =
  let maj = (n / 2) + 1 in
  Assignment.make ~n
    [
      (Queue_ops.enq_name, { Assignment.initial = maj; final = maj });
      (Queue_ops.deq_name, { Assignment.initial = maj; final = maj });
    ]
