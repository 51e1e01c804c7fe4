(* Workload [spec]: the language-level claims, decided one after the
   other on this domain.

   The groups are the ones whose work is the language checker, the proof
   pipeline and the serial-dependency checks; the simulation-based
   groups are left out because they would dilute a checker change.  The
   depth and strategy are `rlx check`'s defaults.  Each pass decides
   every claim once, in an order drawn from the seed; the next claim
   starts when the previous one returns (a closed loop). *)

module Claims = Relax_claims
module Claim = Relax_claims.Claim
module Verdict = Relax_claims.Verdict
module Stats = Relax_core.Language.Stats

let groups = [ "pq"; "collapses"; "account"; "fifo"; "fig42" ]
let depth = 7

(* the claim the warm-up call decides: mid-cost, the same at every seed *)
let warm_up_claim = "pq/theorem4"

let claims () =
  let registry =
    Relax_experiments.Catalog.registry ~depth
      ~strategy:Relax_proof.Strategy.Auto ()
  in
  List.concat_map
    (fun gid ->
      match Claims.Registry.find_group registry gid with
      | Some g -> g.Claims.Registry.claims
      | None -> failwith ("spec: no claim group " ^ gid))
    groups

(* claim id -> expected proof method (["simulation"], ["bounded"] or
   none), from the arbiter CI diffs `rlx check` against *)
let expected_methods ~root =
  Jsonv.read_file (Filename.concat root "expected_claims.json")
  |> Jsonv.to_list
  |> List.map (fun o ->
         ( Jsonv.to_string (Jsonv.field "id" o),
           match Jsonv.field "proof_method" o with
           | Jsonv.Null -> None
           | m -> Some (Jsonv.to_string m) ))

(* The layer a claim's time is attributed to: a certified simulation is
   the proof pipeline's work; a serial-dependency obligation is the
   quorum checker's; everything else is decided by the language
   checker's enumeration and product search. *)
let layer (c : Claim.t) (v : Verdict.t) =
  match (v.Verdict.proof_method, c.Claim.kind) with
  | Some (Verdict.Proved_simulation _), _ -> "proof"
  | _, Claim.Serial_dependency -> "quorum"
  | _ -> "core"

type sample = {
  ok : bool;
  ms : float;
  layer : string;
  alloc : float;
  stats : Stats.t;
}

let decide expected (c : Claim.t) =
  Span.fresh_heap ();
  let a0 = Span.alloc_words () in
  let t0 = Span.now_ms () in
  let o = Claims.Engine.run_claim c in
  let t1 = Span.now_ms () in
  let a1 = Span.alloc_words () in
  (* the engine resets the domain-local counters before the claim and
     leaves them untouched after it: they are this claim's work *)
  let stats = Stats.read () in
  let v = o.Claims.Engine.verdict in
  let method_ = Option.map Verdict.proof_method_to_string v.Verdict.proof_method in
  let ok =
    Verdict.ok v && List.assoc_opt c.Claim.id expected = Some method_
  in
  if not ok then
    Printf.eprintf "spec: %s: %s (method %s)\n%!" c.Claim.id
      (Verdict.status_to_string v.Verdict.status)
      (Option.value method_ ~default:"none");
  (t0, t1, { ok; ms = t1 -. t0; layer = layer c v; alloc = a1 -. a0; stats })

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let make ~seed ~root =
  let claims = Array.of_list (claims ()) in
  let expected = expected_methods ~root in
  let warm_up () =
    match Array.find_opt (fun c -> c.Claim.id = warm_up_claim) claims with
    | None -> failwith ("spec: no claim " ^ warm_up_claim)
    | Some c ->
      let _, _, s = decide expected c in
      if s.ok then 0 else 1
  in
  let pass r k =
    let order = Array.copy claims in
    shuffle (Random.State.make [| seed; k |]) order;
    let t0 = Span.now_ms () in
    let samples =
      Span.enclose r "spec/pass" (fun () ->
          Array.to_list order
          |> List.map (fun (c : Claim.t) ->
                 let start_ms, stop_ms, s = decide expected c in
                 Span.leaf r (s.layer ^ "/" ^ c.Claim.id) ~start_ms ~stop_ms;
                 (c, s)))
    in
    let ss = List.map snd samples in
    let stat f = Quant.sum (fun s -> float_of_int (f s.stats)) ss in
    {
      Pass.calls =
        List.map
          (fun ((c : Claim.t), s) ->
            { Pass.tag = c.Claim.id; ms = s.ms })
          samples;
      units = float_of_int (List.length ss);
      failed = List.length (List.filter (fun s -> not s.ok) ss);
      counts =
        [
          ( "proof.sim_claims",
            float_of_int (List.length (List.filter (fun s -> s.layer = "proof") ss)) );
          ("proof.fallbacks", stat (fun s -> s.Stats.fallbacks));
          ("proof.obligations", stat (fun s -> s.Stats.obligations));
          ("proof.relation_pairs", stat (fun s -> s.Stats.relation));
          ("core.histories", stat (fun s -> s.Stats.histories));
          ("core.pairs_visited", stat (fun s -> s.Stats.visited));
          ("core.memo_hits", stat (fun s -> s.Stats.memo_hits));
          ("claims.alloc_words", Quant.sum (fun s -> s.alloc) ss);
        ];
      wall_s = (Span.now_ms () -. t0) /. 1000.0;
    }
  in
  let layers first passes table =
    let p = first in
    let n = float_of_int (List.length passes) in
    let per_pass layer = Span.self_s table layer /. n in
    let c = Pass.count p in
    let visited = c "core.pairs_visited" and hits = c "core.memo_hits" in
    let checker_s = per_pass "proof" +. per_pass "core" +. per_pass "quorum" in
    [
      ("proof.sim_s", per_pass "proof");
      ("proof.sim_claims", c "proof.sim_claims");
      ("proof.fallbacks", c "proof.fallbacks");
      ("proof.obligations", c "proof.obligations");
      ("proof.relation_pairs", c "proof.relation_pairs");
      ("proof.obligations_per_s", c "proof.obligations" /. per_pass "proof");
      ("core.enum_s", per_pass "core");
      ("core.histories", c "core.histories");
      ("core.pairs_visited", visited);
      ("core.memo_hit_ratio", hits /. (hits +. visited));
      ("core.pairs_per_s", visited /. checker_s);
      ("quorum.sd_s", per_pass "quorum");
      ("claims.alloc_mw", c "claims.alloc_words" /. 1e6);
    ]
  in
  {
    Pass.warm_up;
    pass;
    post_check = (fun () -> (0, 0));
    layers;
    extra = (fun _ -> []);
  }
