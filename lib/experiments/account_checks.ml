open Relax_core
open Relax_objects
open Relax_quorum

(* Experiment B3-4 (combinatorial side): the bank-account lattice of
   Section 3.4 checked at the language level, complementing the runtime
   simulation in Atm.

   The paper's claims:

     - {A1, A2} is (with the analogous credit constraints elided) the
       preferred point: one-copy serializable account behavior;
     - the bank relaxes A1 but never A2, accepting spurious bounces while
       guaranteeing the account is never overdrawn;
     - relaxing A2 admits genuine overdrafts.

   Checked here by bounded enumeration: at {A1,A2} the QCA language
   equals the account automaton's; at {A2} the language strictly contains
   it (the extra histories are exactly spurious bounces) but every
   history keeps a non-negative true balance at every prefix; at {A1} and
   {} some history overdraws.  Claims live under "account/". *)

type check = Pq_checks.check = { ok : bool; detail : string }

let amounts = [ 1; 2 ]
let alphabet = Account.alphabet amounts

let qca rel = Qca.automaton_views ~alphabet Instances.account_spec rel

let a1_a2 = Relation.union Instances.a1 Instances.a2

(* A "spurious bounce" history: one rejected by the single-copy account
   (which knows the true balance) yet present in the relaxed language. *)
let is_spurious_bounce_witness h =
  (not (Automaton.accepts Account.automaton h))
  && List.exists Account.is_debit_bounced h

let never_overdrawn_language a ~depth =
  List.for_all Instances.never_overdrawn (Language.enumerate a ~alphabet ~depth)

let exists_overdraft a ~depth =
  List.exists
    (fun h -> not (Instances.never_overdrawn h))
    (Language.enumerate a ~alphabet ~depth)

let claims ?(depth = 4) () =
  let paper = "Section 3.4" in
  [
    Pq_checks.equivalence_claim ~id:"account/top" ~paper
      "L(QCA(Account,{A1,A2},eta)) = L(Account)"
      (fun () -> (qca a1_a2, Account.automaton))
      ~alphabet ~depth;
    Pq_checks.check_claim ~id:"account/a2-strict" ~kind:Inclusion ~paper
      ~description:"{A2} strictly relaxes the account" (fun () ->
        match
          Language.strictly_included (qca a1_a2) (qca Instances.a2) ~alphabet
            ~depth
        with
        | Ok (Some w) ->
          ( {
              ok = is_spurious_bounce_witness w;
              detail = Fmt.str "witness: %a" History.pp w;
            },
            Some (History.to_string w) )
        | Ok None ->
          ( { ok = false; detail = "languages coincide at this bound" },
            None )
        | Error c ->
          ( { ok = false; detail = Fmt.str "%a" Language.pp_counterexample c },
            Some (History.to_string c.Language.history) ))
      ;
    Pq_checks.bool_claim ~id:"account/a2-solvent" ~kind:Characterization ~paper
      "every history at {A2} keeps the account solvent" (fun () ->
        never_overdrawn_language (qca Instances.a2) ~depth);
    Pq_checks.bool_claim ~id:"account/a1-overdrafts" ~kind:Characterization
      ~paper "relaxing A2 admits overdrafts ({A1} point)" (fun () ->
        exists_overdraft (qca Instances.a1) ~depth);
    Pq_checks.bool_claim ~id:"account/bottom-overdrafts" ~kind:Characterization
      ~paper "relaxing A2 admits overdrafts ({} point)" (fun () ->
        exists_overdraft (qca Relation.empty) ~depth);
    Pq_checks.bool_claim ~id:"account/monotone" ~kind:Monotone ~paper
      "account lattice (sublattice retaining A2) is monotone" (fun () ->
        Relaxation.check_monotone
          (Instances.account_lattice ~alphabet ())
          ~alphabet ~depth
        = []);
  ]

let group ?depth () =
  {
    Relax_claims.Registry.gid = "account";
    title = "Section 3.4 bank-account lattice at the language level";
    header = "== Section 3.4: bank-account lattice (language level) ==\n";
    claims = claims ?depth ();
  }
