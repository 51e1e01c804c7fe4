open Relax_prob

(* Experiment P3-3: the probabilistic example of Section 3.3.

   "Suppose each queue operation satisfies Q1 with independent probability
    0.9, and Deq operations are certain to satisfy Q2.  The likelihood a
    Deq will fail to return an item whose priority is within the top n is
    (0.1)^n."

   Printed as a paper-vs-measured table; the claim ("prob/topn") passes
   when every Monte Carlo estimate's Wilson interval covers the closed
   form. *)

let run_body ~trials ~max_n ppf =
  let table = Topn.table ~trials ~max_n () in
  Fmt.pf ppf "%-4s %-12s %s@\n" "n" "paper (0.1^n)" "measured (Wilson 95%)";
  let all_ok =
    List.for_all
      (fun (n, theory, estimate) ->
        Fmt.pf ppf "%-4d %-12.6f %a@\n" n theory Montecarlo.pp_estimate
          estimate;
        Montecarlo.consistent_with estimate ~theory)
      table
  in
  Fmt.pf ppf "all estimates consistent with the closed form: %b@\n" all_ok;
  all_ok

let claims ?(trials = 200_000) ?(max_n = 4) () =
  [
    Relax_claims.Claim.report ~id:"prob/topn" ~kind:Numeric
      ~paper:"Section 3.3 (0.1^n)"
      ~description:"P(Deq misses the top-n priorities) = 0.1^n"
      ~detail:(Fmt.str "%d trials per rank, n = 1..%d" trials max_n)
      (run_body ~trials ~max_n);
  ]

let group ?trials ?max_n () =
  {
    Relax_claims.Registry.gid = "prob";
    title = "Section 3.3 probabilistic claim: P(miss top-n) = 0.1^n";
    header = "== Section 3.3: P(Deq misses the top-n priorities) = 0.1^n ==\n";
    claims = claims ?trials ?max_n ();
  }
