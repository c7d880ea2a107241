exception Xml_error of string * int

let error pos fmt = Format.kasprintf (fun s -> raise (Xml_error (s, pos))) fmt

let max_depth = 256

type event =
  | Open of string * (string * string) list
  | Close
  | Text of string
  | Eof

type reader = {
  src : string;
  len : int;
  mutable pos : int;
  mutable open_tags : string list;  (* innermost first *)
  mutable depth : int;
  mutable started : bool;  (* the root element has been opened *)
  mutable self_closed : bool;  (* the last Open was [<tag/>]: Close is owed *)
  buf : Buffer.t;  (* reused to decode values that hold a reference *)
}

let reader src =
  {
    src;
    len = String.length src;
    pos = 0;
    open_tags = [];
    depth = 0;
    started = false;
    self_closed = false;
    buf = Buffer.create 64;
  }

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let rec matches src i lit k =
  k = String.length lit
  || (String.unsafe_get src (i + k) = String.unsafe_get lit k && matches src i lit (k + 1))

(* [at r i lit]: the source holds [lit] at offset [i]. *)
let at r i lit = i + String.length lit <= r.len && matches r.src i lit 0

(* The offset of the first [lit] at or after [i], if any. *)
let rec find r i lit =
  if i + String.length lit > r.len then None else if at r i lit then Some i else find r (i + 1) lit

(* ---- references ------------------------------------------------------- *)

(* Decodes the reference [&name;] that spans [amp, semi] into [r.buf];
   offsets are the reference's own position in the document. *)
let add_reference r amp semi =
  let entity = String.sub r.src (amp + 1) (semi - amp - 1) in
  match entity with
  | "amp" -> Buffer.add_char r.buf '&'
  | "lt" -> Buffer.add_char r.buf '<'
  | "gt" -> Buffer.add_char r.buf '>'
  | "quot" -> Buffer.add_char r.buf '"'
  | "apos" -> Buffer.add_char r.buf '\''
  | _ when String.length entity > 1 && entity.[0] = '#' -> (
      let code =
        if entity.[1] = 'x' || entity.[1] = 'X' then
          int_of_string_opt ("0x" ^ String.sub entity 2 (String.length entity - 2))
        else int_of_string_opt (String.sub entity 1 (String.length entity - 1))
      in
      match code with
      | Some c when c >= 0xD800 && c <= 0xDFFF ->
          error amp "character reference &%s; is a surrogate" entity
      | Some c when c >= 0 && c <= 0x10FFFF -> Buffer.add_utf_8_uchar r.buf (Uchar.of_int c)
      | Some _ -> error amp "character reference &%s; is beyond U+10FFFF" entity
      | None -> error amp "malformed character reference &%s;" entity)
  | _ -> error amp "unknown entity &%s;" entity

(* The value held by the source span [start, stop). Only a span holding
   [&] is copied through the buffer, and every scan stops at [stop]: an
   unbounded search would make parsing quadratic in the document. *)
let value r start stop ~has_ref =
  if not has_ref then String.sub r.src start (stop - start)
  else begin
    Buffer.clear r.buf;
    let i = ref start in
    while !i < stop do
      let c = String.unsafe_get r.src !i in
      if c <> '&' then begin
        Buffer.add_char r.buf c;
        incr i
      end
      else begin
        let semi = ref (!i + 1) in
        while !semi < stop && String.unsafe_get r.src !semi <> ';' do
          incr semi
        done;
        if !semi >= stop then error !i "unterminated entity reference";
        add_reference r !i !semi;
        i := !semi + 1
      end
    done;
    Buffer.contents r.buf
  end

(* ---- tokens ----------------------------------------------------------- *)

let skip_spaces r =
  while r.pos < r.len && is_space (String.unsafe_get r.src r.pos) do
    r.pos <- r.pos + 1
  done

let expect_char r c =
  if r.pos >= r.len then error r.pos "expected %C at end of input" c
  else
    let c' = String.unsafe_get r.src r.pos in
    if c' = c then r.pos <- r.pos + 1 else error r.pos "expected %C, found %C" c c'

let name r =
  let start = r.pos in
  if not (r.pos < r.len && is_name_start (String.unsafe_get r.src r.pos)) then
    error r.pos "expected a name";
  while r.pos < r.len && is_name_char (String.unsafe_get r.src r.pos) do
    r.pos <- r.pos + 1
  done;
  String.sub r.src start (r.pos - start)

let attr_value r =
  let quote =
    if r.pos < r.len && (r.src.[r.pos] = '"' || r.src.[r.pos] = '\'') then r.src.[r.pos]
    else error r.pos "expected a quoted attribute value"
  in
  let start = r.pos + 1 in
  let i = ref start and has_ref = ref false in
  while !i < r.len && String.unsafe_get r.src !i <> quote do
    if String.unsafe_get r.src !i = '&' then has_ref := true;
    incr i
  done;
  if !i >= r.len then error start "unterminated attribute value";
  r.pos <- !i + 1;
  value r start !i ~has_ref:!has_ref

let rec attrs r =
  skip_spaces r;
  if r.pos < r.len && is_name_start (String.unsafe_get r.src r.pos) then begin
    let key = name r in
    skip_spaces r;
    expect_char r '=';
    skip_spaces r;
    let v = attr_value r in
    (key, v) :: attrs r
  end
  else []

(* Whitespace, comments and processing instructions, before, between and
   after markup. *)
let rec skip_misc r =
  skip_spaces r;
  if at r r.pos "<!--" then begin
    match find r (r.pos + 4) "-->" with
    | Some stop ->
        r.pos <- stop + 3;
        skip_misc r
    | None -> error r.pos "unterminated comment"
  end
  else if at r r.pos "<?" then begin
    match find r (r.pos + 2) "?>" with
    | Some stop ->
        r.pos <- stop + 2;
        skip_misc r
    | None -> error r.pos "unterminated processing instruction"
  end

(* ---- events ----------------------------------------------------------- *)

let open_tag r =
  let lt = r.pos in
  if r.depth >= max_depth then error lt "elements nested deeper than %d levels" max_depth;
  r.pos <- lt + 1;
  let tag = name r in
  let attrs = attrs r in
  skip_spaces r;
  if at r r.pos "/>" then begin
    r.pos <- r.pos + 2;
    r.self_closed <- true
  end
  else expect_char r '>';
  r.open_tags <- tag :: r.open_tags;
  r.depth <- r.depth + 1;
  Open (tag, attrs)

let pop r =
  r.open_tags <- List.tl r.open_tags;
  r.depth <- r.depth - 1;
  Close

let close_tag r =
  r.pos <- r.pos + 2;
  let closing = name r in
  skip_spaces r;
  expect_char r '>';
  let enclosing = List.hd r.open_tags in
  if not (String.equal closing enclosing) then
    error r.pos "mismatched closing tag </%s> for <%s>" closing enclosing;
  pop r

let rec content r =
  let pos = r.pos in
  if pos >= r.len then error pos "unexpected end of input inside <%s>" (List.hd r.open_tags)
  else if String.unsafe_get r.src pos <> '<' then text r
  else
    match if pos + 1 < r.len then String.unsafe_get r.src (pos + 1) else '<' with
    | '/' -> close_tag r
    | '?' ->
        skip_misc r;
        content r
    | '!' when at r pos "<!--" ->
        skip_misc r;
        content r
    | '!' when at r pos "<![CDATA[" -> (
        match find r (pos + 9) "]]>" with
        | Some stop ->
            r.pos <- stop + 3;
            Text (String.sub r.src (pos + 9) (stop - pos - 9))
        | None -> error pos "unterminated CDATA section")
    | _ -> open_tag r

(* Character data up to the next markup; whitespace-only runs are dropped. *)
and text r =
  let start = r.pos in
  let i = ref start and blank = ref true and has_ref = ref false in
  while !i < r.len && String.unsafe_get r.src !i <> '<' do
    let c = String.unsafe_get r.src !i in
    if c = '&' then has_ref := true;
    if not (is_space c) then blank := false;
    incr i
  done;
  r.pos <- !i;
  if !blank then content r else Text (value r start !i ~has_ref:!has_ref)

let next r =
  if r.self_closed then begin
    r.self_closed <- false;
    pop r
  end
  else if r.depth > 0 then content r
  else if not r.started then begin
    skip_misc r;
    if not (r.pos < r.len && r.src.[r.pos] = '<') then error r.pos "expected a root element";
    r.started <- true;
    open_tag r
  end
  else begin
    skip_misc r;
    if r.pos < r.len then error r.pos "trailing content after root element";
    Eof
  end

let rec skip r =
  match next r with
  | Open _ ->
      skip r;
      skip r
  | Text _ -> skip r
  | Close | Eof -> ()

let parse src =
  let r = reader src in
  let rec children acc =
    match next r with
    | Open (tag, attrs) -> children (Xml.Elem { tag; attrs; children = children [] } :: acc)
    | Text s -> children (Xml.Text s :: acc)
    | Close | Eof -> List.rev acc
  in
  match children [] with
  | [ root ] -> root
  | _ -> assert false (* the reader yields exactly one root element, or raises *)
