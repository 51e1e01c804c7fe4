(* A minimal JSON reader for the repository's expected_*.json files, and
   the number formatting the result line uses.  Only what those files
   contain is supported: objects, arrays, strings without unicode
   escapes, numbers, booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (
      incr pos;
      skip ())
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then (
      pos := !pos + m;
      v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | _ -> fail "unsupported escape");
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then (
        incr pos;
        Obj [])
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (
            incr pos;
            fields ((k, v) :: acc))
          else (
            expect '}';
            Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then (
        incr pos;
        Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (
            incr pos;
            items (v :: acc))
          else (
            expect ']';
            Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing input";
  v

let read_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s

let field k = function
  | Obj fs -> (
    match List.assoc_opt k fs with
    | Some v -> v
    | None -> raise (Parse_error ("missing field " ^ k)))
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let to_list = function Arr l -> l | _ -> raise (Parse_error "not an array")
let to_string = function Str s -> s | _ -> raise (Parse_error "not a string")
let to_num = function Num f -> f | _ -> raise (Parse_error "not a number")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "not a boolean")

(* A metric value for the result line: finite, with all its digits. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f
