(* The online conformance oracle: the one judge of every chaos run.

   It maintains the predicted behavior's automaton frontier as
   operations complete: the frontier after a prefix is empty iff the
   prefix is rejected, so a violation is flagged at the exact operation
   that causes it, with the offending prefix already in hand — ready for
   the trace shrinker.

   The oracle freezes at the first violation: the offending prefix is the
   verdict, and stepping a dead frontier could only stay dead.  Its
   verdict is [Automaton.accepts] of the same automaton, and the flagged
   prefix is the shortest rejected one, because both are
   frontier-emptiness of the same delta* (property-tested in
   test/test_degrade.ml). *)

open Relax_core
module Tr = Relax_obs.Tracer.Ambient
module At = Relax_obs.Attr

type violation = { index : int; op : Op.t; prefix : History.t }

(* Closure-encoded to hide the automaton's state type. *)
type t = {
  automaton_name : string;
  step_ : Op.t -> unit;
  frontier_size : unit -> int;
  frontier_ : unit -> string list;
  violation_ : unit -> violation option;
  seen_ : unit -> History.t;
}

let of_automaton (type v) (a : v Automaton.t) =
  let frontier = ref [ Automaton.init a ] in
  let seen_rev = ref [] in
  let count = ref 0 in
  let violation = ref None in
  let step_ op =
    match !violation with
    | Some _ -> () (* frozen: the verdict is already in *)
    | None ->
      seen_rev := op :: !seen_rev;
      let next = Automaton.step_set a !frontier op in
      frontier := next;
      if next = [] then begin
        let v = { index = !count; op; prefix = List.rev !seen_rev } in
        violation := Some v;
        if Tr.active () then
          Tr.instant "degrade/violation"
            ~attrs:
              [
                At.str "automaton" (Automaton.name a);
                At.str "op" (Op.name op);
                At.int "index" !count;
              ]
      end;
      incr count
  in
  {
    automaton_name = Automaton.name a;
    step_;
    frontier_size = (fun () -> List.length !frontier);
    frontier_ =
      (fun () ->
        List.map (fun v -> Fmt.str "%a" (Automaton.pp_state a) v) !frontier);
    violation_ = (fun () -> !violation);
    seen_ = (fun () -> List.rev !seen_rev);
  }

let automaton_name t = t.automaton_name
let step t op = t.step_ op
let feed t ops = List.iter t.step_ ops
let frontier_size t = t.frontier_size ()
let frontier t = t.frontier_ ()
let violation t = t.violation_ ()
let conforms t = Option.is_none (t.violation_ ())
let seen t = t.seen_ ()
