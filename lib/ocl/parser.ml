exception Parse_error of string * int

(* Tokens are lexed as the parse reaches them, so input refused early (say,
   at the nesting bound) costs nothing past that point. *)
type state = {
  src : string;
  mutable current : Token.located;
  mutable stop : int;  (** offset just past [current]: where lexing resumes *)
  mutable depth : int;
}

let max_depth = 256
let peek st = st.current
let peek_token st = st.current.Token.token

let advance st =
  let t, stop = Lexer.next st.src st.stop in
  st.current <- t;
  st.stop <- stop

let error st fmt =
  let pos = (peek st).Token.pos in
  Format.kasprintf (fun s -> raise (Parse_error (s, pos))) fmt

let expect st token =
  if peek_token st = token then advance st
  else
    error st "expected %s but found %s" (Token.to_string token)
      (Token.to_string (peek_token st))

let expect_ident st =
  match peek_token st with
  | Token.Ident name ->
      advance st;
      name
  | t -> error st "expected an identifier but found %s" (Token.to_string t)

(* A variable introduced by let, an iterator or iterate: [$name$] is bound
   only by the parameter environment. *)
let expect_binder st =
  match peek_token st with
  | Token.Ident name when String.starts_with ~prefix:"$" name ->
      error st "parameter %s cannot be bound by an expression" name
  | _ -> expect_ident st

(* Every recursive descent goes through here: each nested expression
   (parenthesised, an argument, an iterator body, a branch of [if] or
   [let]), each operand of a prefix [-] or [not], each right operand of
   [implies] and each type argument is one level deeper, so hostile nesting
   is refused after [max_depth] levels instead of growing the stack. *)
let nested st parse =
  if st.depth >= max_depth then error st "nested deeper than %d levels" max_depth;
  st.depth <- st.depth + 1;
  let e = parse st in
  st.depth <- st.depth - 1;
  e

(* Lookahead from the current token (just after '('): do the arguments
   open with an iterator's variables, [v1 (: T)?, v2 (: T)?, ... |], so this
   is an iterator body rather than plain arguments? In input that parses,
   a '|' sits at depth 1 only right after such a list, so this answers as a
   scan for that '|' would. It lexes ahead without consuming and reads
   only the variables and their type annotations (giving up [max_depth]
   type arguments down, past what the parse accepts), so it costs the
   variable list, never the whole argument, and nested calls stay linear. *)
let has_toplevel_pipe st =
  let next (_, stop) = Lexer.next st.src stop in
  let token ((t : Token.located), _) = t.Token.token in
  let rec type_name depth t =
    match token t with
    | Token.Ident _ when depth <= max_depth -> (
        let t = next t in
        if token t <> Token.Lparen then Some t
        else
          match type_name (depth + 1) (next t) with
          | Some t when token t = Token.Rparen -> Some (next t)
          | _ -> None)
    | _ -> None
  in
  let rec binders t =
    match token t with
    | Token.Ident _ -> (
        let t = next t in
        match if token t = Token.Colon then type_name 0 (next t) else Some t with
        | Some t when token t = Token.Pipe -> true
        | Some t when token t = Token.Comma -> binders (next t)
        | _ -> false)
    | _ -> false
  in
  binders (st.current, st.stop)

let rec parse_expr st = nested st parse_implies

and parse_implies st =
  let lhs = parse_or st in
  if peek_token st = Token.Kw_implies then begin
    advance st;
    (* implies is right-associative *)
    Ast.E_binop (Ast.Op_implies, lhs, nested st parse_implies)
  end
  else lhs

and parse_or st =
  let rec loop lhs =
    match peek_token st with
    | Token.Kw_or ->
        advance st;
        loop (Ast.E_binop (Ast.Op_or, lhs, parse_and st))
    | Token.Kw_xor ->
        advance st;
        loop (Ast.E_binop (Ast.Op_xor, lhs, parse_and st))
    | _ -> lhs
  in
  loop (parse_and st)

and parse_and st =
  let rec loop lhs =
    if peek_token st = Token.Kw_and then begin
      advance st;
      loop (Ast.E_binop (Ast.Op_and, lhs, parse_rel st))
    end
    else lhs
  in
  loop (parse_rel st)

and parse_rel st =
  let lhs = parse_add st in
  let op =
    match peek_token st with
    | Token.Eq -> Some Ast.Op_eq
    | Token.Neq -> Some Ast.Op_neq
    | Token.Lt -> Some Ast.Op_lt
    | Token.Gt -> Some Ast.Op_gt
    | Token.Le -> Some Ast.Op_le
    | Token.Ge -> Some Ast.Op_ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      advance st;
      Ast.E_binop (op, lhs, parse_add st)

and parse_add st =
  let rec loop lhs =
    match peek_token st with
    | Token.Plus ->
        advance st;
        loop (Ast.E_binop (Ast.Op_add, lhs, parse_mul st))
    | Token.Minus ->
        advance st;
        loop (Ast.E_binop (Ast.Op_sub, lhs, parse_mul st))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match peek_token st with
    | Token.Star ->
        advance st;
        loop (Ast.E_binop (Ast.Op_mul, lhs, parse_unary st))
    | Token.Slash ->
        advance st;
        loop (Ast.E_binop (Ast.Op_div, lhs, parse_unary st))
    | Token.Kw_div ->
        advance st;
        loop (Ast.E_binop (Ast.Op_idiv, lhs, parse_unary st))
    | Token.Kw_mod ->
        advance st;
        loop (Ast.E_binop (Ast.Op_mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match peek_token st with
  | Token.Minus ->
      advance st;
      Ast.E_neg (nested st parse_unary)
  | Token.Kw_not ->
      advance st;
      Ast.E_not (nested st parse_unary)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec loop receiver =
    match peek_token st with
    | Token.Dot ->
        advance st;
        let name = expect_ident st in
        if peek_token st = Token.Lparen then begin
          advance st;
          let args = parse_args st in
          expect st Token.Rparen;
          loop (Ast.E_call (receiver, name, args))
        end
        else loop (Ast.E_prop (receiver, name))
    | Token.Arrow ->
        advance st;
        let name = expect_ident st in
        expect st Token.Lparen;
        let node =
          if String.equal name "iterate" then parse_iterate st receiver
          else if has_toplevel_pipe st then parse_iterator st receiver name
          else begin
            let args = parse_args st in
            Ast.E_coll_op (receiver, name, args)
          end
        in
        expect st Token.Rparen;
        loop node
    | _ -> receiver
  in
  loop (parse_primary st)

and parse_args st =
  if peek_token st = Token.Rparen then []
  else
    let rec loop acc =
      let e = parse_expr st in
      if peek_token st = Token.Comma then begin
        advance st;
        loop (e :: acc)
      end
      else List.rev (e :: acc)
    in
    loop []

and parse_iterator st receiver name =
  let rec vars acc =
    let v = expect_binder st in
    (* iterator variables may carry an ignored type annotation *)
    (if peek_token st = Token.Colon then begin
       advance st;
       ignore (parse_type_name st)
     end);
    if peek_token st = Token.Comma then begin
      advance st;
      vars (v :: acc)
    end
    else List.rev (v :: acc)
  in
  let vs = vars [] in
  expect st Token.Pipe;
  let body = parse_expr st in
  Ast.E_iter (receiver, name, vs, body)

and parse_iterate st receiver =
  let v = expect_binder st in
  (if peek_token st = Token.Colon then begin
     advance st;
     ignore (parse_type_name st)
   end);
  expect st Token.Semicolon;
  let acc = expect_binder st in
  (if peek_token st = Token.Colon then begin
     advance st;
     ignore (parse_type_name st)
   end);
  expect st Token.Eq;
  let init = parse_expr st in
  expect st Token.Pipe;
  let body = parse_expr st in
  Ast.E_iterate (receiver, v, acc, init, body)

and parse_type_name st =
  (* A type annotation: an identifier optionally applied to a type argument,
     e.g. [Integer], [Set(String)]. Only consumed, not recorded. *)
  let name = expect_ident st in
  if peek_token st = Token.Lparen then begin
    advance st;
    let inner = nested st parse_type_name in
    expect st Token.Rparen;
    name ^ "(" ^ inner ^ ")"
  end
  else name

and parse_primary st =
  match peek_token st with
  | Token.Int n ->
      advance st;
      Ast.E_int n
  | Token.Real f ->
      advance st;
      Ast.E_real f
  | Token.String s ->
      advance st;
      Ast.E_string s
  | Token.Kw_true ->
      advance st;
      Ast.E_bool true
  | Token.Kw_false ->
      advance st;
      Ast.E_bool false
  | Token.Kw_self ->
      advance st;
      Ast.E_self
  | Token.Lparen ->
      advance st;
      let e = parse_expr st in
      expect st Token.Rparen;
      e
  | Token.Kw_if ->
      advance st;
      let cond = parse_expr st in
      expect st Token.Kw_then;
      let then_ = parse_expr st in
      expect st Token.Kw_else;
      let else_ = parse_expr st in
      expect st Token.Kw_endif;
      Ast.E_if (cond, then_, else_)
  | Token.Kw_let ->
      advance st;
      let v = expect_binder st in
      (if peek_token st = Token.Colon then begin
         advance st;
         ignore (parse_type_name st)
       end);
      expect st Token.Eq;
      let bound = parse_expr st in
      expect st Token.Kw_in;
      let body = parse_expr st in
      Ast.E_let (v, bound, body)
  | Token.Ident name when is_collection_literal st name ->
      advance st;
      expect st Token.Lbrace;
      let items =
        if peek_token st = Token.Rbrace then []
        else
          let rec loop acc =
            let e = parse_expr st in
            if peek_token st = Token.Comma then begin
              advance st;
              loop (e :: acc)
            end
            else List.rev (e :: acc)
          in
          loop []
      in
      expect st Token.Rbrace;
      let kind =
        match name with
        | "Set" -> Ast.Ck_set
        | "Sequence" -> Ast.Ck_sequence
        | "Bag" -> Ast.Ck_bag
        | _ -> assert false
      in
      Ast.E_collection (kind, items)
  | Token.Ident name ->
      advance st;
      Ast.E_var name
  | t -> error st "unexpected %s" (Token.to_string t)

and is_collection_literal st name =
  (String.equal name "Set" || String.equal name "Sequence"
 || String.equal name "Bag")
  && (fst (Lexer.next st.src st.stop)).Token.token = Token.Lbrace

let parse src =
  let current, stop = Lexer.next src 0 in
  let st = { src; current; stop; depth = 0 } in
  (* the top-level expression is level 0 *)
  let e = parse_implies st in
  if peek_token st <> Token.Eof then
    error st "trailing input starting with %s" (Token.to_string (peek_token st));
  e

let parse_opt src =
  match parse src with
  | e -> Ok e
  | exception Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at offset %d: %s" pos msg)
  | exception Lexer.Lexical_error (msg, pos) ->
      Error (Printf.sprintf "lexical error at offset %d: %s" pos msg)
