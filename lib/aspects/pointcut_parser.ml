type state = {
  src : string;
  mutable pos : int;
  mutable depth : int;
}

let max_depth = 256

exception Error of string * int

let error st fmt =
  Format.kasprintf (fun s -> raise (Error (s, st.pos))) fmt

let skip_spaces st =
  while
    st.pos < String.length st.src
    && (st.src.[st.pos] = ' ' || st.src.[st.pos] = '\t' || st.src.[st.pos] = '\n')
  do
    st.pos <- st.pos + 1
  done

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let eat st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st "expected %s" s

let is_pattern_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '*' || c = '$'

let parse_pattern st =
  skip_spaces st;
  let start = st.pos in
  while st.pos < String.length st.src && is_pattern_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected a name pattern";
  String.sub st.src start (st.pos - start)

let parse_keyword st =
  skip_spaces st;
  let start = st.pos in
  while
    st.pos < String.length st.src
    && st.src.[st.pos] >= 'a'
    && st.src.[st.pos] <= 'z'
  do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* Every recursive descent goes through here: each '(', each '!' and each
   right operand of '&&' or '||' is one level deeper, so hostile nesting is
   refused after [max_depth] levels instead of growing the stack. *)
let nested st parse =
  if st.depth >= max_depth then error st "nested deeper than %d levels" max_depth;
  st.depth <- st.depth + 1;
  let pc = parse st in
  st.depth <- st.depth - 1;
  pc

let rec parse_or st =
  let lhs = parse_and st in
  skip_spaces st;
  if looking_at st "||" then begin
    eat st "||";
    Pointcut.Or (lhs, nested st parse_or)
  end
  else lhs

and parse_and st =
  let lhs = parse_factor st in
  skip_spaces st;
  if looking_at st "&&" then begin
    eat st "&&";
    Pointcut.And (lhs, nested st parse_and)
  end
  else lhs

and parse_factor st =
  skip_spaces st;
  match peek st with
  | Some '!' ->
      eat st "!";
      Pointcut.Not (nested st parse_factor)
  | Some '(' ->
      eat st "(";
      let pc = nested st parse_or in
      skip_spaces st;
      eat st ")";
      pc
  | Some _ -> parse_primitive st
  | None -> error st "unexpected end of input"

and parse_primitive st =
  let keyword = parse_keyword st in
  skip_spaces st;
  eat st "(";
  let result =
    match keyword with
    | "within" -> Pointcut.Within (parse_pattern st)
    | "execution" | "call" | "set" -> (
        let cls = parse_pattern st in
        skip_spaces st;
        eat st ".";
        let member = parse_pattern st in
        match keyword with
        | "execution" -> Pointcut.execution cls member
        | "call" -> Pointcut.call cls member
        | _ -> Pointcut.set_field cls member)
    | "" -> error st "expected a pointcut keyword"
    | kw -> error st "unknown pointcut designator %s" kw
  in
  skip_spaces st;
  eat st ")";
  result

let parse src =
  let st = { src; pos = 0; depth = 0 } in
  match
    let pc = parse_or st in
    skip_spaces st;
    if st.pos < String.length src then error st "trailing input";
    pc
  with
  | pc -> Ok pc
  | exception Error (msg, pos) ->
      Stdlib.Error (Printf.sprintf "pointcut parse error at %d: %s" pos msg)
