open Relax_core
open Relax_objects
open Relax_quorum
open Relax_replica

(* Experiment B3-4: the replicated bank account of Section 3.4.

   Debits must read a majority (A2 is never relaxed); credits announce
   success as soon as one site records them and propagate in the
   background, so constraint A1 — "each initial Debit quorum intersects
   each final Credit quorum" — only holds once propagation catches up.  A
   debit issued too soon after a credit may miss it and bounce spuriously,
   but the account can never be overdrawn.  The experiment sweeps the
   debit "think time" and measures the spurious-bounce rate, checking the
   two safety claims:

     (1) with A2 kept, the true balance never goes negative;
     (2) relaxing A2 as well (debits also read one site) admits real
         overdrafts — demonstrating why the bank insists on A2. *)

type params = {
  sites : int;
  rounds : int;
  mean_latency : float;
  seed : int;
}

let default_params = { sites = 5; rounds = 30; mean_latency = 5.0; seed = 3 }

let assignment ~relax_a2 ~n =
  let maj = (n / 2) + 1 in
  Assignment.make ~n
    [
      (Account.credit_name, { Assignment.initial = 0; final = 1 });
      (Account.debit_name,
       {
         Assignment.initial = (if relax_a2 then 1 else maj);
         final = (if relax_a2 then 1 else maj);
       });
    ]

type outcome = {
  think_time : float;
  credits : int;
  debits_ok : int;
  bounces : int;
  spurious_bounces : int;
  overdrafts : int; (* prefixes with negative true balance *)
  never_overdrawn : bool;
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "think=%6.1f  credits %2d  debits-ok %2d  bounces %2d (spurious %2d)  %s"
    o.think_time o.credits o.debits_ok o.bounces o.spurious_bounces
    (if o.never_overdrawn then "never overdrawn"
     else Fmt.str "OVERDRAWN (%d bad prefixes)" o.overdrafts)

(* One run: [rounds] times, credit 10 at a random branch, wait
   [think_time], then debit 10 at another branch.  With short think times
   the debit outruns the credit's propagation and bounces spuriously. *)
let run_once ?(params = default_params) ?(timeout = 300.0) ?retries ?backoff
    ~relax_a2 ~think_time () =
  let engine = Relax_sim.Engine.create ~seed:params.seed () in
  let net =
    Relax_sim.Network.create ~mean_latency:params.mean_latency engine
      ~sites:params.sites
  in
  let replica =
    Replica.create ~timeout ?retries ?backoff engine net
      (assignment ~relax_a2 ~n:params.sites)
      ~respond:Choosers.account
  in
  let rng = Relax_sim.Rng.create ~seed:(params.seed + 5) in
  let credits = ref 0 and debits_ok = ref 0 and bounces = ref 0 in
  let spurious = ref 0 in
  let true_balance = ref 0 in
  (* background anti-entropy on a 60-tick check: credits written to one
     branch spread to the others through the self-healing loop — quiet
     while the branches agree, a round as soon as they diverge *)
  let ae =
    Relax_degrade.Anti_entropy.create ~check_every:60.0 ~min_interval:60.0
      ~max_interval:480.0 engine replica
  in
  Relax_degrade.Anti_entropy.install ae;
  for _ = 1 to params.rounds do
    let credit_site = Relax_sim.Rng.int rng params.sites in
    let debit_site = Relax_sim.Rng.int rng params.sites in
    let round_done = ref false in
    (* the ATM announces success on the first ack; the customer walks to
       another branch (think_time) and withdraws, racing propagation *)
    Replica.execute replica ~client_site:credit_site
      (Op.inv Account.credit_name ~args:[ Value.int 10 ])
      (fun r ->
        match r with
        | Replica.Completed (p, _) when Account.is_credit p ->
          incr credits;
          true_balance := !true_balance + 10;
          Relax_sim.Engine.schedule engine ~delay:think_time (fun () ->
              Replica.execute replica ~client_site:debit_site
                (Op.inv Account.debit_name ~args:[ Value.int 10 ])
                (fun r ->
                  round_done := true;
                  match r with
                  | Replica.Completed (p, _) when Account.is_debit_ok p ->
                    incr debits_ok;
                    true_balance := !true_balance - 10
                  | Replica.Completed (p, _) when Account.is_debit_bounced p
                    ->
                    incr bounces;
                    if !true_balance >= 10 then incr spurious
                  | Replica.Completed _ | Replica.Unavailable _ -> ()))
        | _ -> round_done := true);
    (* drive the engine until the round settles *)
    let guard = ref 0 in
    while (not !round_done) && !guard < 100 do
      incr guard;
      Relax_sim.Engine.run
        ~until:(Relax_sim.Engine.now engine +. 50.0)
        ~max_events:100_000 engine
    done
  done;
  let history = Replica.completed_history replica in
  let overdrafts =
    List.length
      (List.filter
         (fun prefix -> Account.eval_balance prefix < 0)
         (History.prefixes history))
  in
  {
    think_time;
    credits = !credits;
    debits_ok = !debits_ok;
    bounces = !bounces;
    spurious_bounces = !spurious;
    overdrafts;
    never_overdrawn = Instances.never_overdrawn history;
  }

(* The paper's qualitative claim: the spurious-bounce probability
   diminishes with time since the credit. *)
let sweep ?(params = default_params) ?timeout ?retries ?backoff
    ?(think_times = [ 0.0; 10.0; 40.0; 150.0 ]) () =
  List.map
    (fun tt ->
      run_once ~params ?timeout ?retries ?backoff ~relax_a2:false
        ~think_time:tt ())
    think_times

let run_body ?params ?timeout ?retries ?backoff ppf =
  let outcomes = sweep ?params ?timeout ?retries ?backoff () in
  List.iter (fun o -> Fmt.pf ppf "%a@\n" pp_outcome o) outcomes;
  let safe = List.for_all (fun o -> o.never_overdrawn) outcomes in
  (* bounce rate should not increase with think time *)
  let rates = List.map (fun o -> o.spurious_bounces) outcomes in
  let monotone_decreasing =
    match rates with
    | [] | [ _ ] -> true
    | first :: _ ->
      let last = List.nth rates (List.length rates - 1) in
      last <= first
  in
  Fmt.pf ppf "safety (never overdrawn): %b@\n" safe;
  Fmt.pf ppf "spurious bounces diminish with think time: %b@\n"
    monotone_decreasing;
  let unsafe =
    run_once ?params ?timeout ?retries ?backoff ~relax_a2:true ~think_time:0.0
      ()
  in
  Fmt.pf ppf
    "control (A2 relaxed as well): %s — why the bank insists on A2@\n"
    (if unsafe.never_overdrawn then "no overdraft observed at this seed"
     else Fmt.str "OVERDRAFT OBSERVED (%d bad prefixes)" unsafe.overdrafts);
  safe && monotone_decreasing

let claims ?params ?timeout ?retries ?backoff () =
  [
    Relax_claims.Claim.report ~id:"atm/safety" ~kind:Characterization
      ~paper:"Section 3.4 (ATM example)"
      ~description:
        "with A2 kept the account is never overdrawn, and spurious bounces \
         diminish with think time"
      ~detail:"replica runtime, think-time sweep plus relax-A2 control"
      (run_body ?params ?timeout ?retries ?backoff);
  ]

let group ?params ?timeout ?retries ?backoff () =
  {
    Relax_claims.Registry.gid = "atm";
    title = "Section 3.4 replicated bank account on the replica runtime";
    header =
      "== Section 3.4: replicated bank account (A2 kept, A1 relaxed) ==\n";
    claims = claims ?params ?timeout ?retries ?backoff ();
  }
