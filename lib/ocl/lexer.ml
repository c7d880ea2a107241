exception Lexical_error of string * int

let error pos fmt = Format.kasprintf (fun s -> raise (Lexical_error (s, pos))) fmt

let keyword_of_ident = function
  | "self" -> Some Token.Kw_self
  | "if" -> Some Token.Kw_if
  | "then" -> Some Token.Kw_then
  | "else" -> Some Token.Kw_else
  | "endif" -> Some Token.Kw_endif
  | "let" -> Some Token.Kw_let
  | "in" -> Some Token.Kw_in
  | "not" -> Some Token.Kw_not
  | "and" -> Some Token.Kw_and
  | "or" -> Some Token.Kw_or
  | "xor" -> Some Token.Kw_xor
  | "implies" -> Some Token.Kw_implies
  | "true" -> Some Token.Kw_true
  | "false" -> Some Token.Kw_false
  | "div" -> Some Token.Kw_div
  | "mod" -> Some Token.Kw_mod
  | _ -> None

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let next src i =
  let len = String.length src in
  let tok pos token stop = ({ Token.token; pos }, stop) in
  let rec scan i =
    if i >= len then tok i Token.Eof i
    else
      let c = src.[i] in
      match c with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1)
      | '-' when i + 1 < len && src.[i + 1] = '-' ->
          (* comment to end of line *)
          let rec skip j = if j < len && src.[j] <> '\n' then skip (j + 1) else j in
          scan (skip (i + 2))
      | '-' when i + 1 < len && src.[i + 1] = '>' -> tok i Token.Arrow (i + 2)
      | '-' -> tok i Token.Minus (i + 1)
      | '.' when i + 1 < len && is_digit src.[i + 1] -> scan_number i
      | '.' -> tok i Token.Dot (i + 1)
      | ',' -> tok i Token.Comma (i + 1)
      | ';' -> tok i Token.Semicolon (i + 1)
      | ':' -> tok i Token.Colon (i + 1)
      | '|' -> tok i Token.Pipe (i + 1)
      | '(' -> tok i Token.Lparen (i + 1)
      | ')' -> tok i Token.Rparen (i + 1)
      | '{' -> tok i Token.Lbrace (i + 1)
      | '}' -> tok i Token.Rbrace (i + 1)
      | '=' -> tok i Token.Eq (i + 1)
      | '<' when i + 1 < len && src.[i + 1] = '>' -> tok i Token.Neq (i + 2)
      | '<' when i + 1 < len && src.[i + 1] = '=' -> tok i Token.Le (i + 2)
      | '<' -> tok i Token.Lt (i + 1)
      | '>' when i + 1 < len && src.[i + 1] = '=' -> tok i Token.Ge (i + 2)
      | '>' -> tok i Token.Gt (i + 1)
      | '+' -> tok i Token.Plus (i + 1)
      | '*' -> tok i Token.Star (i + 1)
      | '/' -> tok i Token.Slash (i + 1)
      | '\'' -> scan_string i
      | c when is_digit c -> scan_number i
      | '$' -> scan_param i
      | c when is_ident_start c -> scan_ident i
      | c -> error i "unexpected character %C" c
  and scan_number start =
    let rec digits j = if j < len && is_digit src.[j] then digits (j + 1) else j in
    let int_end = digits start in
    let is_real =
      int_end + 1 < len && src.[int_end] = '.' && is_digit src.[int_end + 1]
    in
    if is_real then begin
      let frac_end = digits (int_end + 1) in
      let text = String.sub src start (frac_end - start) in
      match float_of_string_opt text with
      | Some f -> tok start (Token.Real f) frac_end
      | None -> error start "malformed real literal %s" text
    end
    else begin
      let text = String.sub src start (int_end - start) in
      match int_of_string_opt text with
      | Some n -> tok start (Token.Int n) int_end
      | None -> error start "malformed integer literal %s" text
    end
  and scan_string start =
    let buf = Buffer.create 16 in
    let rec walk j =
      if j >= len then error start "unterminated string literal"
      else if src.[j] = '\'' then
        if j + 1 < len && src.[j + 1] = '\'' then begin
          Buffer.add_char buf '\'';
          walk (j + 2)
        end
        else tok start (Token.String (Buffer.contents buf)) (j + 1)
      else begin
        Buffer.add_char buf src.[j];
        walk (j + 1)
      end
    in
    walk (start + 1)
  and ident_end j =
    if j < len && is_ident_char src.[j] then ident_end (j + 1) else j
  and scan_param start =
    (* [$name$]: one identifier token, dollars included *)
    let stop = ident_end (start + 1) in
    if stop < len && src.[stop] = '$' && is_ident_start src.[start + 1]
    then tok start (Token.Ident (String.sub src start (stop + 1 - start))) (stop + 1)
    else error start "malformed parameter reference, expected $name$"
  and scan_ident start =
    let stop = ident_end start in
    let text = String.sub src start (stop - start) in
    tok start
      (match keyword_of_ident text with Some kw -> kw | None -> Token.Ident text)
      stop
  in
  scan i
