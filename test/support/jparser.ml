open Code

exception Parse_error of string * int

type state = {
  toks : Jlexer.located array;
  mutable cur : int;
}

let peek st = st.toks.(st.cur).Jlexer.token
let pos st = st.toks.(st.cur).Jlexer.pos
let advance st = st.cur <- st.cur + 1

let error st fmt =
  let p = pos st in
  Format.kasprintf (fun s -> raise (Parse_error (s, p))) fmt

let eat_punct st p =
  match peek st with
  | Jlexer.T_punct q when String.equal p q -> advance st
  | t -> error st "expected %s, found %s" p (Jlexer.token_text t)

let eat_keyword st kw =
  match peek st with
  | Jlexer.T_ident id when String.equal id kw -> advance st
  | t -> error st "expected %s, found %s" kw (Jlexer.token_text t)

let next_is_punct st p =
  match peek st with Jlexer.T_punct q -> String.equal p q | _ -> false

let next_is_keyword st kw =
  match peek st with Jlexer.T_ident id -> String.equal id kw | _ -> false

let expect_ident st =
  match peek st with
  | Jlexer.T_ident id ->
      advance st;
      id
  | t -> error st "expected an identifier, found %s" (Jlexer.token_text t)

let skip_comments st =
  while match peek st with Jlexer.T_comment _ -> true | _ -> false do
    advance st
  done

(* ---- types ----------------------------------------------------------- *)

let rec parse_type st =
  match peek st with
  | Jlexer.T_ident "void" ->
      advance st;
      Jtype.T_void
  | Jlexer.T_ident "boolean" ->
      advance st;
      Jtype.T_boolean
  | Jlexer.T_ident "int" ->
      advance st;
      Jtype.T_int
  | Jlexer.T_ident "double" ->
      advance st;
      Jtype.T_double
  | Jlexer.T_ident "String" ->
      advance st;
      Jtype.T_string
  | Jlexer.T_ident "List" ->
      advance st;
      eat_punct st "<";
      let inner = parse_type st in
      eat_punct st ">";
      Jtype.T_list inner
  | Jlexer.T_ident name ->
      advance st;
      Jtype.T_named name
  | t -> error st "expected a type, found %s" (Jlexer.token_text t)

(* ---- expressions ------------------------------------------------------ *)

let reserved_expr_keywords =
  [ "new"; "this"; "null"; "true"; "false"; "instanceof" ]

let starts_unary st =
  match peek st with
  | Jlexer.T_int _ | Jlexer.T_double _ | Jlexer.T_string _ -> true
  | Jlexer.T_punct ("(" | "!" | "-") -> true
  | Jlexer.T_ident id -> not (List.mem id [ "instanceof" ])
  | _ -> false

let rec parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_or st in
  if next_is_punct st "=" then begin
    advance st;
    Jexpr.E_assign (lhs, parse_assign st)
  end
  else lhs

and parse_or st =
  let rec loop lhs =
    if next_is_punct st "||" then begin
      advance st;
      loop (Jexpr.E_binary ("||", lhs, parse_and st))
    end
    else lhs
  in
  loop (parse_and st)

and parse_and st =
  let rec loop lhs =
    if next_is_punct st "&&" then begin
      advance st;
      loop (Jexpr.E_binary ("&&", lhs, parse_eq st))
    end
    else lhs
  in
  loop (parse_eq st)

and parse_eq st =
  let rec loop lhs =
    match peek st with
    | Jlexer.T_punct (("==" | "!=") as op) ->
        advance st;
        loop (Jexpr.E_binary (op, lhs, parse_rel st))
    | _ -> lhs
  in
  loop (parse_rel st)

and parse_rel st =
  let rec loop lhs =
    match peek st with
    | Jlexer.T_punct (("<" | ">" | "<=" | ">=") as op) ->
        advance st;
        loop (Jexpr.E_binary (op, lhs, parse_add st))
    | Jlexer.T_ident "instanceof" ->
        advance st;
        loop (Jexpr.E_instanceof (lhs, expect_ident st))
    | _ -> lhs
  in
  loop (parse_add st)

and parse_add st =
  let rec loop lhs =
    match peek st with
    | Jlexer.T_punct (("+" | "-") as op) ->
        advance st;
        loop (Jexpr.E_binary (op, lhs, parse_mul st))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match peek st with
    | Jlexer.T_punct (("*" | "/") as op) ->
        advance st;
        loop (Jexpr.E_binary (op, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Jlexer.T_punct "!" ->
      advance st;
      Jexpr.E_unary ("!", parse_unary st)
  | Jlexer.T_punct "-" ->
      advance st;
      Jexpr.E_unary ("-", parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec loop recv =
    if next_is_punct st "." then begin
      advance st;
      let name = expect_ident st in
      if next_is_punct st "(" then begin
        advance st;
        let args = parse_args st in
        eat_punct st ")";
        loop (Jexpr.E_call (Some recv, name, args))
      end
      else loop (Jexpr.E_field (recv, name))
    end
    else recv
  in
  loop (parse_primary st)

and parse_args st =
  if next_is_punct st ")" then []
  else
    let rec loop acc =
      let e = parse_expr st in
      if next_is_punct st "," then begin
        advance st;
        loop (e :: acc)
      end
      else List.rev (e :: acc)
    in
    loop []

and parse_primary st =
  match peek st with
  | Jlexer.T_int n ->
      advance st;
      Jexpr.E_int n
  | Jlexer.T_double f ->
      advance st;
      Jexpr.E_double f
  | Jlexer.T_string s ->
      advance st;
      Jexpr.E_string s
  | Jlexer.T_ident "true" ->
      advance st;
      Jexpr.E_bool true
  | Jlexer.T_ident "false" ->
      advance st;
      Jexpr.E_bool false
  | Jlexer.T_ident "null" ->
      advance st;
      Jexpr.E_null
  | Jlexer.T_ident "this" ->
      advance st;
      Jexpr.E_this
  | Jlexer.T_ident "new" ->
      advance st;
      let cls = expect_ident st in
      eat_punct st "(";
      let args = parse_args st in
      eat_punct st ")";
      Jexpr.E_new (cls, args)
  | Jlexer.T_ident id when not (List.mem id reserved_expr_keywords) ->
      advance st;
      if next_is_punct st "(" then begin
        advance st;
        let args = parse_args st in
        eat_punct st ")";
        Jexpr.E_call (None, id, args)
      end
      else Jexpr.E_name id
  | Jlexer.T_punct "(" -> (
      advance st;
      (* cast or parenthesized expression: attempt a cast with backtracking *)
      let snapshot = st.cur in
      let cast =
        match parse_type st with
        | t ->
            if next_is_punct st ")" then begin
              advance st;
              if starts_unary st then Some (Jexpr.E_cast (t, parse_unary st))
              else None
            end
            else None
        | exception Parse_error _ -> None
      in
      match cast with
      | Some e -> e
      | None ->
          st.cur <- snapshot;
          let e = parse_expr st in
          eat_punct st ")";
          e)
  | t -> error st "unexpected %s in expression" (Jlexer.token_text t)

(* ---- statements -------------------------------------------------------- *)

let rec parse_block st =
  eat_punct st "{";
  let rec loop acc =
    if next_is_punct st "}" then begin
      advance st;
      List.rev acc
    end
    else loop (parse_stmt_in st :: acc)
  in
  loop []

and parse_stmt_in st =
  match peek st with
  | Jlexer.T_comment text ->
      advance st;
      Jstmt.S_comment text
  | Jlexer.T_punct "{" -> Jstmt.S_block (parse_block st)
  | Jlexer.T_ident "return" ->
      advance st;
      if next_is_punct st ";" then begin
        advance st;
        Jstmt.S_return None
      end
      else begin
        let e = parse_expr st in
        eat_punct st ";";
        Jstmt.S_return (Some e)
      end
  | Jlexer.T_ident "if" ->
      advance st;
      eat_punct st "(";
      let cond = parse_expr st in
      eat_punct st ")";
      let then_ = parse_block st in
      let else_ =
        if next_is_keyword st "else" then begin
          advance st;
          parse_block st
        end
        else []
      in
      Jstmt.S_if (cond, then_, else_)
  | Jlexer.T_ident "while" ->
      advance st;
      eat_punct st "(";
      let cond = parse_expr st in
      eat_punct st ")";
      Jstmt.S_while (cond, parse_block st)
  | Jlexer.T_ident "throw" ->
      advance st;
      let e = parse_expr st in
      eat_punct st ";";
      Jstmt.S_throw e
  | Jlexer.T_ident "try" ->
      advance st;
      let body = parse_block st in
      let rec catches acc =
        if next_is_keyword st "catch" then begin
          advance st;
          eat_punct st "(";
          let t = parse_type st in
          let name = expect_ident st in
          eat_punct st ")";
          let handler = parse_block st in
          catches ((t, name, handler) :: acc)
        end
        else List.rev acc
      in
      let catch_clauses = catches [] in
      let finally =
        if next_is_keyword st "finally" then begin
          advance st;
          parse_block st
        end
        else []
      in
      Jstmt.S_try (body, catch_clauses, finally)
  | Jlexer.T_ident "synchronized" ->
      advance st;
      eat_punct st "(";
      let lock = parse_expr st in
      eat_punct st ")";
      Jstmt.S_sync (lock, parse_block st)
  | _ -> (
      (* local declaration vs expression statement: backtrack *)
      let snapshot = st.cur in
      let local =
        match parse_type st with
        | t -> (
            match peek st with
            | Jlexer.T_ident name
              when not (List.mem name reserved_expr_keywords) -> (
                advance st;
                match peek st with
                | Jlexer.T_punct "=" ->
                    advance st;
                    let init = parse_expr st in
                    eat_punct st ";";
                    Some (Jstmt.S_local (t, name, Some init))
                | Jlexer.T_punct ";" ->
                    advance st;
                    Some (Jstmt.S_local (t, name, None))
                | _ -> None)
            | _ -> None)
        | exception Parse_error _ -> None
      in
      match local with
      | Some stmt -> stmt
      | None ->
          st.cur <- snapshot;
          let e = parse_expr st in
          eat_punct st ";";
          Jstmt.S_expr e)

(* ---- declarations ------------------------------------------------------- *)

let modifier_keywords =
  [
    ("public", Jdecl.M_public);
    ("private", Jdecl.M_private);
    ("protected", Jdecl.M_protected);
    ("static", Jdecl.M_static);
    ("final", Jdecl.M_final);
    ("abstract", Jdecl.M_abstract);
    ("synchronized", Jdecl.M_synchronized);
  ]

let parse_modifiers st =
  let rec loop acc =
    match peek st with
    | Jlexer.T_ident id when List.mem_assoc id modifier_keywords ->
        (* "synchronized (" begins a statement, not a modifier; callers only
           use parse_modifiers in declaration position so this is safe *)
        advance st;
        loop (List.assoc id modifier_keywords :: acc)
    | _ -> List.rev acc
  in
  loop []

let parse_params st =
  eat_punct st "(";
  if next_is_punct st ")" then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let t = parse_type st in
      let name = expect_ident st in
      let param = { Jdecl.param_name = name; param_type = t } in
      if next_is_punct st "," then begin
        advance st;
        loop (param :: acc)
      end
      else begin
        eat_punct st ")";
        List.rev (param :: acc)
      end
    in
    loop []
  end

let parse_throws st =
  if next_is_keyword st "throws" then begin
    advance st;
    let rec loop acc =
      let name = expect_ident st in
      if next_is_punct st "," then begin
        advance st;
        loop (name :: acc)
      end
      else List.rev (name :: acc)
    in
    loop []
  end
  else []

let parse_member st =
  skip_comments st;
  let mods = parse_modifiers st in
  let t = parse_type st in
  let name = expect_ident st in
  if next_is_punct st "(" then begin
    let params = parse_params st in
    let throws = parse_throws st in
    let body =
      if next_is_punct st ";" then begin
        advance st;
        None
      end
      else Some (parse_block st)
    in
    Either.Right
      {
        Jdecl.method_name = name;
        method_mods = mods;
        return_type = t;
        params;
        throws;
        body;
      }
  end
  else begin
    let init =
      if next_is_punct st "=" then begin
        advance st;
        Some (parse_expr st)
      end
      else None
    in
    eat_punct st ";";
    Either.Left
      { Jdecl.field_name = name; field_type = t; field_mods = mods; field_init = init }
  end

let parse_name_list st =
  let rec loop acc =
    let name = expect_ident st in
    if next_is_punct st "," then begin
      advance st;
      loop (name :: acc)
    end
    else List.rev (name :: acc)
  in
  loop []

let parse_class_rest st mods =
  let name = expect_ident st in
  let extends =
    if next_is_keyword st "extends" then begin
      advance st;
      Some (expect_ident st)
    end
    else None
  in
  let implements =
    if next_is_keyword st "implements" then begin
      advance st;
      parse_name_list st
    end
    else []
  in
  eat_punct st "{";
  let rec members fields methods =
    skip_comments st;
    if next_is_punct st "}" then begin
      advance st;
      (List.rev fields, List.rev methods)
    end
    else
      match parse_member st with
      | Either.Left f -> members (f :: fields) methods
      | Either.Right m -> members fields (m :: methods)
  in
  let fields, methods = members [] [] in
  Jdecl.Class
    { Jdecl.class_name = name; class_mods = mods; extends; implements; fields; methods }

let parse_interface_rest st =
  let name = expect_ident st in
  let extends =
    if next_is_keyword st "extends" then begin
      advance st;
      parse_name_list st
    end
    else []
  in
  eat_punct st "{";
  let rec members acc =
    skip_comments st;
    if next_is_punct st "}" then begin
      advance st;
      List.rev acc
    end
    else
      match parse_member st with
      | Either.Right m -> members (m :: acc)
      | Either.Left _ -> error st "interfaces cannot declare fields here"
  in
  let methods = members [] in
  Jdecl.Interface { Jdecl.iface_name = name; iface_extends = extends; iface_methods = methods }

let parse_type_decl st =
  skip_comments st;
  let mods = parse_modifiers st in
  if next_is_keyword st "class" then begin
    advance st;
    parse_class_rest st mods
  end
  else if next_is_keyword st "interface" then begin
    advance st;
    parse_interface_rest st
  end
  else error st "expected class or interface"

let parse_qname st =
  let rec loop acc =
    let part = expect_ident st in
    if next_is_punct st "." then begin
      advance st;
      loop (part :: acc)
    end
    else String.concat "." (List.rev (part :: acc))
  in
  loop []

let parse_unit_tokens st =
  skip_comments st;
  eat_keyword st "package";
  let package = parse_qname st in
  eat_punct st ";";
  let rec imports acc =
    skip_comments st;
    if next_is_keyword st "import" then begin
      advance st;
      let name = parse_qname st in
      eat_punct st ";";
      imports (name :: acc)
    end
    else List.rev acc
  in
  let imports = imports [] in
  let rec decls acc =
    skip_comments st;
    if peek st = Jlexer.T_eof then List.rev acc
    else decls (parse_type_decl st :: acc)
  in
  Junit.unit_ ~imports ~package (decls [])

let make_state src = { toks = Array.of_list (Jlexer.tokenize src); cur = 0 }

let parse_unit src = parse_unit_tokens (make_state src)

let parse_unit_opt src =
  match parse_unit src with
  | u -> Ok u
  | exception Parse_error (msg, p) ->
      Error (Printf.sprintf "parse error at offset %d: %s" p msg)
  | exception Jlexer.Lex_error (msg, p) ->
      Error (Printf.sprintf "lexical error at offset %d: %s" p msg)

let parse_expr src =
  let st = make_state src in
  let e = parse_expr st in
  if peek st <> Jlexer.T_eof then error st "trailing input";
  e

let parse_stmt src =
  let st = make_state src in
  let s = parse_stmt_in st in
  if peek st <> Jlexer.T_eof then error st "trailing input";
  s
