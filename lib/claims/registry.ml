(* The claim registry: every check group of the reproduction, in the
   fixed order `rlx check all` reports them.

   A registry is an ordered list of groups; a group owns a stable id
   (the name `rlx check <gid>` dispatches on), a one-line title for
   listings, the human-mode banner printed before the group's lines,
   and the group's claims.  Construction validates the id discipline —
   group ids unique, every claim id prefixed by its group id — so the
   CLI, the bench harness and CI can all trust ids as addresses. *)

type group = {
  gid : string;
  title : string;
  header : string;
  claims : Claim.t list;
}

type t = { groups : group list }

let id_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '/')
       s

let create groups =
  let seen_gid = Hashtbl.create 16 and seen_id = Hashtbl.create 64 in
  List.iter
    (fun g ->
      if not (id_ok g.gid) then
        invalid_arg (Fmt.str "Registry.create: bad group id %S" g.gid);
      if Hashtbl.mem seen_gid g.gid then
        invalid_arg (Fmt.str "Registry.create: duplicate group id %S" g.gid);
      Hashtbl.add seen_gid g.gid ();
      List.iter
        (fun (c : Claim.t) ->
          if not (id_ok c.id) then
            invalid_arg (Fmt.str "Registry.create: bad claim id %S" c.id);
          let prefix = g.gid ^ "/" in
          let plen = String.length prefix in
          if
            String.length c.id <= plen
            || String.sub c.id 0 plen <> prefix
          then
            invalid_arg
              (Fmt.str "Registry.create: claim %S not under group %S" c.id
                 g.gid);
          if Hashtbl.mem seen_id c.id then
            invalid_arg (Fmt.str "Registry.create: duplicate claim id %S" c.id);
          Hashtbl.add seen_id c.id ())
        g.claims)
    groups;
  { groups }

let groups t = t.groups
let group_ids t = List.map (fun g -> g.gid) t.groups
let find_group t gid = List.find_opt (fun g -> g.gid = gid) t.groups
let all_claims t = List.concat_map (fun g -> g.claims) t.groups
let claim_ids t = List.map (fun (c : Claim.t) -> c.id) (all_claims t)

(* Glob matching for --only: '*' matches any (possibly empty) substring,
   every other character matches itself.  No escaping — claim ids never
   contain '*'. *)
let glob_matches ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '*' -> go (pi + 1) si || (si < ns && go pi (si + 1))
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

(* Keep only the claims whose id matches [pattern]; groups left with no
   claim are dropped.  Order is preserved. *)
let select t ~pattern =
  let groups =
    List.filter_map
      (fun g ->
        match
          List.filter
            (fun (c : Claim.t) -> glob_matches ~pattern c.id)
            g.claims
        with
        | [] -> None
        | claims -> Some { g with claims })
      t.groups
  in
  { groups }
