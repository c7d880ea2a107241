(* Every rendering writes into one buffer. Multi-line text is a sequence of
   lines joined by newlines: [line] starts each line with its newline, and
   the wrappers drop the newline in front of the first one. *)

let add = Buffer.add_string

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> add buf "\\\""
      | '\\' -> add buf "\\\\"
      | '\n' -> add buf "\\n"
      | '\t' -> add buf "\\t"
      | c -> Buffer.add_char buf c)
    s

let add_list buf sep f = function
  | [] -> ()
  | x :: rest ->
      f buf x;
      List.iter
        (fun x ->
          add buf sep;
          f buf x)
        rest

let rec expr buf e =
  match e with
  | Jexpr.E_null -> add buf "null"
  | Jexpr.E_this -> add buf "this"
  | Jexpr.E_bool b -> add buf (string_of_bool b)
  | Jexpr.E_int n -> add buf (string_of_int n)
  | Jexpr.E_double f ->
      (* keep a decimal point so the literal re-reads as a double *)
      if Float.is_integer f && Float.abs f < 1e15 then Printf.bprintf buf "%.1f" f
      else Printf.bprintf buf "%g" f
  | Jexpr.E_string s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Jexpr.E_name n -> add buf n
  | Jexpr.E_field (recv, f) ->
      expr buf recv;
      Buffer.add_char buf '.';
      add buf f
  | Jexpr.E_call (None, m, args) -> call buf m args
  | Jexpr.E_call (Some recv, m, args) ->
      expr buf recv;
      Buffer.add_char buf '.';
      call buf m args
  | Jexpr.E_new (cls, args) ->
      add buf "new ";
      call buf cls args
  | Jexpr.E_binary (op, a, b) ->
      Buffer.add_char buf '(';
      expr buf a;
      Buffer.add_char buf ' ';
      add buf op;
      Buffer.add_char buf ' ';
      expr buf b;
      Buffer.add_char buf ')'
  | Jexpr.E_unary (op, a) ->
      add buf op;
      expr buf a
  | Jexpr.E_assign (lhs, rhs) ->
      expr buf lhs;
      add buf " = ";
      expr buf rhs
  | Jexpr.E_cast (t, a) ->
      add buf "((";
      add buf (Jtype.to_string t);
      add buf ") ";
      expr buf a;
      Buffer.add_char buf ')'
  | Jexpr.E_instanceof (a, cls) ->
      Buffer.add_char buf '(';
      expr buf a;
      add buf " instanceof ";
      add buf cls;
      Buffer.add_char buf ')'

and call buf name args =
  add buf name;
  Buffer.add_char buf '(';
  add_list buf ", " expr args;
  Buffer.add_char buf ')'

let line buf depth =
  Buffer.add_char buf '\n';
  for _ = 1 to depth do
    add buf "  "
  done

(* A line holding [prefix], the expression and [suffix]. *)
let expr_line buf depth prefix e suffix =
  line buf depth;
  add buf prefix;
  expr buf e;
  add buf suffix

let rec stmt buf depth s =
  let block stmts = List.iter (stmt buf (depth + 1)) stmts in
  let close () =
    line buf depth;
    add buf "}"
  in
  match s with
  | Jstmt.S_expr e -> expr_line buf depth "" e ";"
  | Jstmt.S_local (t, name, init) ->
      line buf depth;
      add buf (Jtype.to_string t);
      add buf " ";
      add buf name;
      Option.iter
        (fun e ->
          add buf " = ";
          expr buf e)
        init;
      add buf ";"
  | Jstmt.S_return None ->
      line buf depth;
      add buf "return;"
  | Jstmt.S_return (Some e) -> expr_line buf depth "return " e ";"
  | Jstmt.S_if (cond, then_, else_) ->
      expr_line buf depth "if (" cond ") {";
      block then_;
      if else_ <> [] then begin
        line buf depth;
        add buf "} else {";
        block else_
      end;
      close ()
  | Jstmt.S_while (cond, loop) ->
      expr_line buf depth "while (" cond ") {";
      block loop;
      close ()
  | Jstmt.S_throw e -> expr_line buf depth "throw " e ";"
  | Jstmt.S_try (body, catches, finally) ->
      line buf depth;
      add buf "try {";
      block body;
      List.iter
        (fun (t, name, stmts) ->
          line buf depth;
          add buf "} catch (";
          add buf (Jtype.to_string t);
          add buf " ";
          add buf name;
          add buf ") {";
          block stmts)
        catches;
      if finally <> [] then begin
        line buf depth;
        add buf "} finally {";
        block finally
      end;
      close ()
  | Jstmt.S_sync (e, body) ->
      expr_line buf depth "synchronized (" e ") {";
      block body;
      close ()
  | Jstmt.S_comment text ->
      line buf depth;
      add buf "// ";
      add buf text
  | Jstmt.S_block stmts ->
      line buf depth;
      add buf "{";
      block stmts;
      close ()

let mods buf =
  List.iter (fun m ->
      add buf (Jdecl.modifier_to_string m);
      Buffer.add_char buf ' ')

let method_ buf depth (m : Jdecl.method_) =
  line buf depth;
  mods buf m.Jdecl.method_mods;
  add buf (Jtype.to_string m.Jdecl.return_type);
  Buffer.add_char buf ' ';
  add buf m.Jdecl.method_name;
  Buffer.add_char buf '(';
  add_list buf ", "
    (fun buf (p : Jdecl.param) ->
      add buf (Jtype.to_string p.Jdecl.param_type);
      Buffer.add_char buf ' ';
      add buf p.Jdecl.param_name)
    m.Jdecl.params;
  Buffer.add_char buf ')';
  if m.Jdecl.throws <> [] then begin
    add buf " throws ";
    add_list buf ", " add m.Jdecl.throws
  end;
  match m.Jdecl.body with
  | None -> Buffer.add_char buf ';'
  | Some body ->
      add buf " {";
      List.iter (stmt buf (depth + 1)) body;
      line buf depth;
      Buffer.add_char buf '}'

let field buf depth (f : Jdecl.field) =
  line buf depth;
  mods buf f.Jdecl.field_mods;
  add buf (Jtype.to_string f.Jdecl.field_type);
  Buffer.add_char buf ' ';
  add buf f.Jdecl.field_name;
  Option.iter
    (fun init ->
      add buf " = ";
      expr buf init)
    f.Jdecl.field_init;
  Buffer.add_char buf ';'

let type_decl buf = function
  | Jdecl.Class c ->
      line buf 0;
      mods buf c.Jdecl.class_mods;
      add buf "class ";
      add buf c.Jdecl.class_name;
      Option.iter
        (fun s ->
          add buf " extends ";
          add buf s)
        c.Jdecl.extends;
      if c.Jdecl.implements <> [] then begin
        add buf " implements ";
        add_list buf ", " add c.Jdecl.implements
      end;
      add buf " {";
      List.iter (field buf 1) c.Jdecl.fields;
      if c.Jdecl.fields <> [] && c.Jdecl.methods <> [] then line buf 0;
      List.iter
        (fun m ->
          method_ buf 1 m;
          line buf 0)
        c.Jdecl.methods;
      line buf 0;
      Buffer.add_char buf '}'
  | Jdecl.Interface i ->
      line buf 0;
      add buf "public interface ";
      add buf i.Jdecl.iface_name;
      if i.Jdecl.iface_extends <> [] then begin
        add buf " extends ";
        add_list buf ", " add i.Jdecl.iface_extends
      end;
      add buf " {";
      List.iter (method_ buf 1) i.Jdecl.iface_methods;
      line buf 0;
      Buffer.add_char buf '}'

let unit_ buf (u : Junit.t) =
  line buf 0;
  add buf "package ";
  add buf u.Junit.package;
  Buffer.add_char buf ';';
  line buf 0;
  List.iter
    (fun i ->
      line buf 0;
      add buf "import ";
      add buf i;
      Buffer.add_char buf ';')
    u.Junit.imports;
  if u.Junit.imports <> [] then line buf 0;
  List.iter
    (fun d ->
      type_decl buf d;
      line buf 0)
    u.Junit.decls

let program buf units =
  List.iter
    (fun (u : Junit.t) ->
      line buf 0;
      add buf "// file: ";
      add buf u.Junit.package;
      Buffer.add_char buf '/';
      unit_ buf u)
    units

(* Buffer sizes come from the code model: woven code prints about 56 bytes
   per expression position and 32 per method or field header. The buffer
   grows if the estimate falls short. *)
let stmt_size n s = Jstmt.fold_expr (fun n _ -> n + 56) n s

let method_size n (m : Jdecl.method_) =
  List.fold_left stmt_size (n + 32) (Option.value ~default:[] m.Jdecl.body)

let decl_size n = function
  | Jdecl.Class c ->
      List.fold_left method_size (n + 64 + (32 * List.length c.Jdecl.fields)) c.Jdecl.methods
  | Jdecl.Interface i -> List.fold_left method_size (n + 64) i.Jdecl.iface_methods

let unit_size n (u : Junit.t) = List.fold_left decl_size (n + 64) u.Junit.decls

(* The text [write] renders, without the newline in front of its first
   line. *)
let render size write x =
  let buf = Buffer.create size in
  write buf x;
  if Buffer.length buf = 0 then "" else Buffer.sub buf 1 (Buffer.length buf - 1)

let stmt_to_string ?(indent = 0) s = render (stmt_size 64 s) (fun buf -> stmt buf indent) s
let method_to_string ?(indent = 0) m = render (method_size 64 m) (fun buf -> method_ buf indent) m
let program_to_string units = render (List.fold_left unit_size 0 units) program units
