(* A minimal JSON reader for the formats this library itself writes —
   JSONL trace events and `{experiment, metric, value, unit}` snapshot
   rows. Full RFC 8259 value grammar (so hand-edited inputs parse too),
   no dependency, errors as [Error msg] with the offending offset.

   This is a *reader for our own output*, not a general-purpose JSON
   library: numbers collapse to float, and \u escapes decode only the
   basic plane (surrogate pairs pass through as two code points) — both
   exactly what {!Event.to_json}/{!Metric.row_to_json} can produce. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Bad of string

(* Arrays and objects nest at most this deep: deeper input is refused at
   the offset of the bracket that opens level 257, before the recursion
   grows the stack. *)
let max_depth = 256

let parse (s : string) : (value, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let depth = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> incr pos
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let hex_digit () =
    match peek () with
    | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') as c ->
        incr pos;
        let c = Option.get c in
        if c <= '9' then Char.code c - Char.code '0'
        else (Char.code (Char.lowercase_ascii c) - Char.code 'a') + 10
    | _ -> fail "bad \\u escape"
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec chars () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' -> (
          incr pos;
          match peek () with
          | Some '"' -> incr pos; Buffer.add_char buf '"'; chars ()
          | Some '\\' -> incr pos; Buffer.add_char buf '\\'; chars ()
          | Some '/' -> incr pos; Buffer.add_char buf '/'; chars ()
          | Some 'b' -> incr pos; Buffer.add_char buf '\b'; chars ()
          | Some 'f' -> incr pos; Buffer.add_char buf '\012'; chars ()
          | Some 'n' -> incr pos; Buffer.add_char buf '\n'; chars ()
          | Some 'r' -> incr pos; Buffer.add_char buf '\r'; chars ()
          | Some 't' -> incr pos; Buffer.add_char buf '\t'; chars ()
          | Some 'u' ->
              incr pos;
              let c =
                let a = hex_digit () in
                let b = hex_digit () in
                let c = hex_digit () in
                let d = hex_digit () in
                (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d
              in
              (* UTF-8 encode the code point *)
              if c < 0x80 then Buffer.add_char buf (Char.chr c)
              else if c < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
              end;
              chars ()
          | _ -> fail "bad escape")
      | Some c ->
          incr pos;
          Buffer.add_char buf c;
          chars ()
    in
    chars ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let consume () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          incr pos;
          true
      | _ -> false
    in
    while consume () do
      ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let nested parse =
    if !depth >= max_depth then fail (Printf.sprintf "nested deeper than %d levels" max_depth);
    incr depth;
    let v = parse () in
    decr depth;
    v
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' -> nested obj
      | Some '[' -> nested arr
      | Some '"' -> Str (string_ ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected value"
    in
    skip_ws ();
    v
  and obj () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' ->
        incr pos;
        Obj []
    | _ ->
        let rec members acc =
          skip_ws ();
          let k = string_ () in
          skip_ws ();
          expect ':';
          let v = value () in
          match peek () with
          | Some ',' ->
              incr pos;
              members ((k, v) :: acc)
          | _ ->
              expect '}';
              Obj (List.rev ((k, v) :: acc))
        in
        members []
  and arr () =
    expect '[';
    skip_ws ();
    match peek () with
    | Some ']' ->
        incr pos;
        Arr []
    | _ ->
        let rec elements acc =
          let v = value () in
          match peek () with
          | Some ',' ->
              incr pos;
              elements (v :: acc)
          | _ ->
              expect ']';
              Arr (List.rev (v :: acc))
        in
        elements []
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ---- accessors over parsed objects ------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let str_field ?default key obj =
  match (member key obj, default) with
  | Some (Str s), _ -> Some s
  | _, d -> d

let num_field ?default key obj =
  match (member key obj, default) with
  | Some (Num f), _ -> Some f
  | _, d -> d

let int_field ?(default = 0) key obj =
  match member key obj with Some (Num f) -> int_of_float f | _ -> default
