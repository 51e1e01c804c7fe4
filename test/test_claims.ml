open Relax_claims

(* The claim layer: registry validation and selection, engine scheduling
   (deterministic, jobs-independent), the byte-identity of the human
   reporter against the committed golden `rlx check all --depth 5`
   transcript, and the well-formedness of the JSON and TAP reporters. *)

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser, enough to validate the reporter's output.    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad_json (Fmt.str "expected %C at offset %d" c !pos))
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else raise (Bad_json (Fmt.str "bad literal at offset %d" !pos))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad_json "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then raise (Bad_json "truncated \\u escape");
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          (* the reporter only \u-escapes control characters *)
          Buffer.add_char buf (Char.chr (code land 0xff))
        | _ -> raise (Bad_json "bad escape"));
        go ()
      | Some c ->
        if Char.code c < 0x20 then
          raise (Bad_json "unescaped control character");
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    if !pos = start then raise (Bad_json "empty number");
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad_json "expected ',' or '}'")
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> raise (Bad_json "expected ',' or ']'")
        in
        elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> raise (Bad_json "empty input")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let member k = function
  | Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Alcotest.fail (Fmt.str "missing JSON member %S" k))
  | _ -> Alcotest.fail (Fmt.str "not an object (looking for %S)" k)

let to_arr = function
  | Arr l -> l
  | _ -> Alcotest.fail "not a JSON array"

let to_str = function
  | Str s -> s
  | _ -> Alcotest.fail "not a JSON string"

let to_num = function
  | Num f -> f
  | _ -> Alcotest.fail "not a JSON number"

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Under `dune runtest` the cwd is the test directory (where the golden
   dep is materialized); under `dune exec` from the repo root it is not. *)
let read_file path =
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let render format results =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  Reporter.pp format ppf results;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let fake_claim ?(ok = true) ?detail ?proof_method id =
  Claim.make ~id ~kind:Claim.Numeric ~paper:"-" ~description:id (fun () ->
      Verdict.of_bool ok ?detail ?proof_method)

let fake_group ?(gid = "x") ?(header = "") claims =
  { Registry.gid; title = gid; header; claims }

(* The full catalog at the golden transcript's depth, under the CLI's
   default proof strategy (Auto: simulation with enumeration fallback).
   Built once; claim thunks construct their automata internally, so one
   registry value can be run any number of times. *)
let registry =
  Relax_experiments.Catalog.registry ~depth:5
    ~strategy:Relax_proof.Strategy.Auto ()

(* ------------------------------------------------------------------ *)
(* Registry: validation and selection                                  *)
(* ------------------------------------------------------------------ *)

let invalid thunk =
  match thunk () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let registry_tests =
  [
    Alcotest.test_case "catalog shape" `Quick (fun () ->
        Alcotest.(check (list string))
          "group order is the check-all order"
          [
            "pq"; "collapses"; "account"; "prob"; "fig42"; "availability";
            "taxi"; "chaos"; "ldfi"; "degrade"; "relax"; "atm"; "spooler";
            "markov"; "fifo";
          ]
          (Registry.group_ids registry);
        Alcotest.(check int)
          "claim count" 57
          (List.length (Registry.all_claims registry));
        let ids = Registry.claim_ids registry in
        Alcotest.(check int)
          "claim ids unique" (List.length ids)
          (List.length (List.sort_uniq String.compare ids)));
    Alcotest.test_case "create validates ids" `Quick (fun () ->
        invalid (fun () ->
            Registry.create [ fake_group ~gid:"a" []; fake_group ~gid:"a" [] ]);
        invalid (fun () ->
            Registry.create
              [ fake_group ~gid:"a" [ fake_claim "b/oops" ] ]);
        invalid (fun () ->
            Registry.create [ fake_group ~gid:"a" [ fake_claim "a/Bad" ] ]);
        invalid (fun () ->
            Registry.create
              [ fake_group ~gid:"a" [ fake_claim "a/x"; fake_claim "a/x" ] ]));
    Alcotest.test_case "glob matching" `Quick (fun () ->
        let yes pattern s = Alcotest.(check bool) (pattern ^ " ~ " ^ s) true (Registry.glob_matches ~pattern s)
        and no pattern s = Alcotest.(check bool) (pattern ^ " !~ " ^ s) false (Registry.glob_matches ~pattern s) in
        yes "*" "anything";
        yes "pq/*" "pq/top";
        yes "*/monotone" "pq/monotone";
        yes "*/monotone" "account/monotone";
        yes "pq/theorem4" "pq/theorem4";
        yes "*q1*" "pq/sd-q1q2";
        no "pq" "pq/top";
        no "pq/*" "fifo/top";
        no "*/monotone" "pq/monotone-ish");
    Alcotest.test_case "select" `Quick (fun () ->
        let pq = Registry.select registry ~pattern:"pq/*" in
        Alcotest.(check (list string)) "one group" [ "pq" ] (Registry.group_ids pq);
        Alcotest.(check int) "all pq claims" 14
          (List.length (Registry.all_claims pq));
        let monotone = Registry.select registry ~pattern:"*/monotone" in
        Alcotest.(check (list string))
          "monotone claims across groups"
          [ "pq/monotone"; "account/monotone"; "fifo/monotone" ]
          (Registry.claim_ids monotone);
        Alcotest.(check int) "no match selects nothing" 0
          (List.length
             (Registry.all_claims (Registry.select registry ~pattern:"zzz"))));
  ]

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "raised exception becomes an Error verdict" `Quick
      (fun () ->
        let boom =
          Claim.make ~id:"x/boom" ~kind:Claim.Numeric ~paper:"-"
            ~description:"deliberately raising claim" (fun () ->
              failwith "kaboom")
        in
        let results =
          Engine.run (Registry.create [ fake_group [ fake_claim "x/ok"; boom ] ])
        in
        Alcotest.(check bool) "not ok" false (Engine.ok results);
        let outcomes = List.concat_map snd results in
        Alcotest.(check int) "both outcomes present" 2 (List.length outcomes);
        let o =
          List.find (fun o -> o.Engine.claim.Claim.id = "x/boom") outcomes
        in
        (match o.Engine.verdict.Verdict.status with
        | Verdict.Error msg ->
          Alcotest.(check bool)
            "message mentions the exception" true
            (contains ~sub:"kaboom" msg)
        | _ -> Alcotest.fail "expected an Error status");
        Alcotest.(check bool)
          "human rendering flags the failure" true
          (contains
             ~sub:
               "[FAIL] deliberately raising claim — raised \
                Failure(\"kaboom\")\n"
             (render Reporter.Human results)))
      ;
    Alcotest.test_case "stats are attached per claim" `Quick (fun () ->
        let pq_top = Registry.select registry ~pattern:"pq/top" in
        match Engine.run pq_top with
        | [ (_, [ o ]) ] ->
          let s = o.Engine.verdict.Verdict.stats in
          Alcotest.(check bool) "passed" true (Verdict.ok o.Engine.verdict);
          Alcotest.(check bool) "visited > 0" true (s.Verdict.visited > 0);
          Alcotest.(check bool) "memo hits > 0" true (s.Verdict.memo_hits > 0);
          Alcotest.(check bool) "histories > 0" true (s.Verdict.histories > 0);
          Alcotest.(check bool) "wall clock sane" true (s.Verdict.wall_s >= 0.)
        | _ -> Alcotest.fail "expected exactly one outcome");
  ]

(* ------------------------------------------------------------------ *)
(* Reporters                                                           *)
(* ------------------------------------------------------------------ *)

let reporter_tests =
  [
    Alcotest.test_case "human output is byte-identical to the golden transcript"
      `Slow (fun () ->
        let golden = read_file "golden/check_all_depth5.txt" in
        let results = Engine.run registry in
        Alcotest.(check bool) "all pass" true (Engine.ok results);
        Alcotest.(check string) "bytes" golden (render Reporter.Human results));
    Alcotest.test_case "human output is jobs-independent" `Slow (fun () ->
        let one = render Reporter.Human (Engine.run ~jobs:1 registry)
        and four = render Reporter.Human (Engine.run ~jobs:4 registry) in
        Alcotest.(check string) "jobs 1 = jobs 4" one four);
    Alcotest.test_case "json output parses and carries the verdicts" `Slow
      (fun () ->
        let results = Engine.run registry in
        let doc = parse_json (render Reporter.Json results) in
        Alcotest.(check int) "version" 1 (int_of_float (to_num (member "version" doc)));
        Alcotest.(check bool) "ok" true (member "ok" doc = Bool true);
        let claims = to_arr (member "claims" doc) in
        Alcotest.(check int) "total field" (List.length claims)
          (int_of_float (to_num (member "total" doc)));
        Alcotest.(check int) "all registry claims present"
          (List.length (Registry.all_claims registry))
          (List.length claims);
        List.iter
          (fun c ->
            Alcotest.(check string)
              (to_str (member "id" c) ^ " status")
              "pass"
              (to_str (member "status" c)))
          claims;
        let find id =
          List.find (fun c -> to_str (member "id" c) = id) claims
        in
        let stats = member "stats" (find "pq/theorem4") in
        Alcotest.(check bool) "memoized claim visited > 0" true
          (to_num (member "visited" stats) > 0.);
        Alcotest.(check bool) "memoized claim memo_hits > 0" true
          (to_num (member "memo_hits" stats) > 0.);
        Alcotest.(check bool) "memoized claim histories > 0" true
          (to_num (member "histories" stats) > 0.);
        Alcotest.(check bool) "counterexample null on pass" true
          (member "counterexample" (find "pq/theorem4") = Null);
        Alcotest.(check string) "kind" "equivalence"
          (to_str (member "kind" (find "pq/theorem4"))));
    Alcotest.test_case "json escapes hostile strings" `Quick (fun () ->
        let hostile =
          Claim.make ~id:"x/hostile" ~kind:Claim.Numeric
            ~paper:"quotes \" and \\ and\ttabs"
            ~description:"newline\nand control \x01 char" (fun () ->
              Verdict.of_bool true ~detail:"d\"e\\t")
        in
        let results =
          Engine.run (Registry.create [ fake_group [ hostile ] ])
        in
        let doc = parse_json (render Reporter.Json results) in
        let c = List.hd (to_arr (member "claims" doc)) in
        Alcotest.(check string) "description round-trips"
          "newline\nand control \x01 char"
          (to_str (member "description" c));
        Alcotest.(check string) "paper round-trips"
          "quotes \" and \\ and\ttabs"
          (to_str (member "paper" c)));
    Alcotest.test_case "tap output" `Quick (fun () ->
        let results =
          Engine.run
            (Registry.create
               [ fake_group [ fake_claim "x/good"; fake_claim ~ok:false "x/bad" ] ])
        in
        let lines =
          String.split_on_char '\n' (render Reporter.Tap results)
          |> List.filter (fun l -> l <> "")
        in
        (match lines with
        | version :: plan :: rest ->
          Alcotest.(check string) "version line" "TAP version 14" version;
          Alcotest.(check string) "plan" "1..2" plan;
          Alcotest.(check bool) "ok point" true
            (List.exists (fun l -> l = "ok 1 - x/good") rest);
          Alcotest.(check bool) "not ok point" true
            (List.exists (fun l -> l = "not ok 2 - x/bad") rest)
        | _ -> Alcotest.fail "truncated TAP output"));
    Alcotest.test_case "tap output is byte-exact across all statuses" `Quick
      (fun () ->
        let pass = fake_claim "x/pass" in
        let fail_with_detail =
          fake_claim ~ok:false ~detail:"expected 1 got 2" "x/fail"
        in
        let err =
          Claim.make ~id:"x/err" ~kind:Claim.Numeric ~paper:"-"
            ~description:"x/err" (fun () -> failwith "boom")
        in
        let results =
          Engine.run
            (Registry.create [ fake_group [ pass; fail_with_detail; err ] ])
        in
        Alcotest.(check string) "exact TAP v14 bytes"
          "TAP version 14\n\
           1..3\n\
           ok 1 - x/pass\n\
           not ok 2 - x/fail\n\
           # expected 1 got 2\n\
           not ok 3 - x/err # error: Failure(\"boom\")\n\
           # Failure(\"boom\")\n"
          (render Reporter.Tap results));
    Alcotest.test_case "human output is byte-exact across all statuses"
      `Quick (fun () ->
        let sim =
          Verdict.Proved_simulation { enqs = 3; relation = 7; obligations = 40 }
        and enum = Verdict.Bounded { depth = 5 } in
        let table =
          Claim.report ~id:"x/table" ~kind:Claim.Numeric ~paper:"-"
            ~description:"x/table" ~detail:"not shown" (fun ppf ->
              Fmt.pf ppf "row 1@\nrow 2@\n";
              false)
        in
        let results =
          Engine.run
            (Registry.create
               [
                 fake_group ~header:"== x ==\n"
                   [
                     fake_claim "x/pass";
                     fake_claim ~ok:false ~detail:"expected 1 got 2" "x/fail";
                     Claim.make ~id:"x/err" ~kind:Claim.Numeric ~paper:"-"
                       ~description:"x/err" (fun () -> failwith "boom");
                     fake_claim ~detail:"9 histories, depth 5"
                       ~proof_method:sim "x/sim";
                     fake_claim ~proof_method:enum "x/enum";
                     fake_claim ~ok:false ~detail:"witness: []"
                       ~proof_method:enum "x/enum-fail";
                     table;
                   ];
                 fake_group ~gid:"y" [ fake_claim "y/plain" ];
               ])
        in
        Alcotest.(check string) "exact human bytes"
          "== x ==\n\
           [ok] x/pass\n\
           [FAIL] x/fail — expected 1 got 2\n\
           [FAIL] x/err — raised Failure(\"boom\")\n\
           [ok] x/sim — 9 histories, depth 5 [proved: sim, ≤3 enqs]\n\
           [ok] x/enum [bounded: enum]\n\
           [FAIL] x/enum-fail — witness: [] [bounded: enum]\n\
           row 1\n\
           row 2\n\
           [ok] y/plain\n"
          (render Reporter.Human results));
    Alcotest.test_case "format names round-trip" `Quick (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check bool) "round trip" true
              (Reporter.format_of_string (Reporter.format_to_string f) = Some f))
          [ Reporter.Human; Reporter.Json; Reporter.Tap ];
        Alcotest.(check bool) "unknown rejected" true
          (Reporter.format_of_string "xml" = None));
  ]

let () =
  Alcotest.run "claims"
    [
      ("registry", registry_tests);
      ("engine", engine_tests);
      ("reporters", reporter_tests);
    ]
