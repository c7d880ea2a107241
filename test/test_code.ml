(* Tests for the Java-like code model: types, AST traversals, the
   functional code generator, and the printer. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let find_interface (program : Code.Junit.program) name =
  List.find_map
    (fun (u : Code.Junit.t) ->
      List.find_map
        (function
          | Code.Jdecl.Interface i when String.equal i.Code.Jdecl.iface_name name -> Some i
          | Code.Jdecl.Interface _ | Code.Jdecl.Class _ -> None)
        u.Code.Junit.decls)
    program

(* An expression as the statement printer renders it, without the
   statement's closing semicolon. *)
let expr_text e =
  let s = Code.Printer.stmt_to_string (Code.Jstmt.S_expr e) in
  String.sub s 0 (String.length s - 1)

(* ---- jtype -------------------------------------------------------------- *)

let jtype_tests =
  [
    Alcotest.test_case "rendering" `Quick (fun () ->
        check cs "void" "void" (Code.Jtype.to_string Code.Jtype.T_void);
        check cs "list" "List<Account>"
          (Code.Jtype.to_string (Code.Jtype.T_list (Code.Jtype.T_named "Account")));
        check cs "nested" "List<List<int>>"
          (Code.Jtype.to_string
             (Code.Jtype.T_list (Code.Jtype.T_list Code.Jtype.T_int))));
    Alcotest.test_case "defaults" `Quick (fun () ->
        check cb "void none" true (Code.Jtype.default_value_text Code.Jtype.T_void = None);
        check cb "bool" true
          (Code.Jtype.default_value_text Code.Jtype.T_boolean = Some "false");
        check cb "named" true
          (Code.Jtype.default_value_text (Code.Jtype.T_named "X") = Some "null"));
    Alcotest.test_case "of_datatype maps the metamodel" `Quick (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        check cb "real" true
          (Code.Jtype.of_datatype m Mof.Kind.Dt_real = Code.Jtype.T_double);
        check cb "ref" true
          (Code.Jtype.of_datatype m (Mof.Kind.Dt_ref acct)
          = Code.Jtype.T_named "Account");
        check cb "collection" true
          (Code.Jtype.of_datatype m (Mof.Kind.Dt_collection Mof.Kind.Dt_string)
          = Code.Jtype.T_list Code.Jtype.T_string));
  ]

(* ---- expression / statement traversals ---------------------------------- *)

(* One row per expression constructor, at the root: [make child] builds it
   over the children [child "a"], [child "b"], … it names, in program
   order. *)
let expr_shapes =
  let open Code.Jexpr in
  [
    ("null", (fun _ -> E_null), []);
    ("this", (fun _ -> E_this), []);
    ("bool", (fun _ -> E_bool true), []);
    ("int", (fun _ -> E_int 1), []);
    ("double", (fun _ -> E_double 1.5), []);
    ("string", (fun _ -> E_string "s"), []);
    ("name", (fun _ -> E_name "n"), []);
    ("field", (fun c -> E_field (c "a", "f")), [ "a" ]);
    ("call", (fun c -> E_call (Some (c "a"), "m", [ c "b"; c "c" ])), [ "a"; "b"; "c" ]);
    ("unqualified call", (fun c -> E_call (None, "m", [ c "a" ])), [ "a" ]);
    ("new", (fun c -> E_new ("C", [ c "a"; c "b" ])), [ "a"; "b" ]);
    ("binary", (fun c -> E_binary ("+", c "a", c "b")), [ "a"; "b" ]);
    ("unary", (fun c -> E_unary ("!", c "a")), [ "a" ]);
    ("assign", (fun c -> E_assign (c "a", c "b")), [ "a"; "b" ]);
    ("cast", (fun c -> E_cast (Code.Jtype.T_int, c "a")), [ "a" ]);
    ("instanceof", (fun c -> E_instanceof (c "a", "C")), [ "a" ]);
  ]

(* One row per statement kind: [make body] builds it over the bodies
   [body "then"], … it names, in program order; [direct] is the expression
   it holds itself. *)
let stmt_shapes =
  let open Code.Jstmt in
  let e = Code.Jexpr.E_name "e" in
  let catch cls body = (Code.Jtype.T_named cls, "x", body) in
  [
    ("expr", (fun _ -> S_expr e), Some e, []);
    ("local", (fun _ -> S_local (Code.Jtype.T_int, "v", Some e)), Some e, []);
    ("local without initializer", (fun _ -> S_local (Code.Jtype.T_int, "v", None)), None, []);
    ("return", (fun _ -> S_return (Some e)), Some e, []);
    ("bare return", (fun _ -> S_return None), None, []);
    ("if", (fun b -> S_if (e, b "then", b "else")), Some e, [ "then"; "else" ]);
    ("while", (fun b -> S_while (e, b "loop")), Some e, [ "loop" ]);
    ("throw", (fun _ -> S_throw e), Some e, []);
    ( "try",
      (fun b -> S_try (b "try", [ catch "A" (b "catch A"); catch "B" (b "catch B") ], b "finally")),
      None,
      [ "try"; "catch A"; "catch B"; "finally" ] );
    ("sync", (fun b -> S_sync (e, b "lock")), Some e, [ "lock" ]);
    ("comment", (fun _ -> S_comment "c"), None, []);
    ("block", (fun b -> S_block (b "block")), None, [ "block" ]);
  ]

(* A nested body: a block holding one expression statement. *)
let nested label = [ Code.Jstmt.S_block [ Code.Jstmt.S_expr (Code.Jexpr.E_name label) ] ]

let traversal_tests =
  let open Code.Jexpr in
  let expr = Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (expr_text e)) ( = ) in
  let exprs = Alcotest.list expr in
  let stmts =
    Alcotest.list
      (Alcotest.testable
         (fun ppf s -> Format.pp_print_string ppf (Code.Printer.stmt_to_string s))
         ( = ))
  in
  [
    Alcotest.test_case "fold_calls visits every call" `Quick (fun () ->
        List.iter
          (fun (row, make, children) ->
            let e = make (fun name -> E_call (None, name, [])) in
            let root = match e with E_call (_, m, _) -> [ m ] | _ -> [] in
            check (Alcotest.list cs) row (children @ root)
              (List.rev (fold_calls (fun acc (_, name, _) -> name :: acc) [] e)))
          expr_shapes);
    Alcotest.test_case "fold_assigns visits every assignment, children first" `Quick
      (fun () ->
        List.iter
          (fun (row, make, children) ->
            let e = make (fun name -> E_assign (E_name name, E_int 0)) in
            let root = match e with E_assign (lhs, _) -> [ lhs ] | _ -> [] in
            check exprs row
              (List.map (fun name -> E_name name) children @ root)
              (List.rev (fold_assigns (fun acc (lhs, _) -> lhs :: acc) [] e)))
          expr_shapes);
    Alcotest.test_case "map rebuilds every subexpression once, children first" `Quick
      (fun () ->
        List.iter
          (fun (row, make, children) ->
            let e = make (fun name -> E_name name) in
            let seen = ref [] in
            let rename = function E_name n -> E_name (n ^ "'") | e -> e in
            let mapped = map (fun e -> seen := e :: !seen; rename e) e in
            (* [f] meets each child before its parent, and the parent
               already rebuilt over the renamed children *)
            let renamed = make (fun name -> E_name (name ^ "'")) in
            check exprs row
              (List.map (fun name -> E_name name) children @ [ renamed ])
              (List.rev !seen);
            check exprs row [ rename renamed ] [ mapped ])
          expr_shapes);
    Alcotest.test_case "stmt map_expr recurses through structure" `Quick (fun () ->
        List.iter
          (fun (row, make, direct, bodies) ->
            let s = make nested in
            let all = Code.Jstmt.fold_expr (fun acc e -> e :: acc) [] s |> List.rev in
            check exprs row
              (Option.to_list direct @ List.map (fun l -> E_name l) bodies)
              all;
            let negate e = E_unary ("-", e) in
            check exprs row (List.map negate all)
              (List.rev
                 (Code.Jstmt.fold_expr (fun acc e -> e :: acc) [] (Code.Jstmt.map_expr negate s))))
          stmt_shapes);
    Alcotest.test_case "map_bodies reaches every nested list" `Quick (fun () ->
        List.iter
          (fun (row, make, _, bodies) ->
            let seen = ref [] in
            let unwrap body =
              seen := body :: !seen;
              match body with [ Code.Jstmt.S_block inner ] -> inner | _ -> body
            in
            let flat label = [ Code.Jstmt.S_expr (E_name label) ] in
            check stmts row [ make flat ] [ Code.Jstmt.map_bodies unwrap (make nested) ];
            check
              (Alcotest.list stmts) row
              (List.sort compare (List.map nested bodies))
              (List.sort compare !seen))
          stmt_shapes);
    Alcotest.test_case "fold visits parents first, in program order" `Quick (fun () ->
        List.iter
          (fun (row, make, _, bodies) ->
            let s = make nested in
            check stmts row
              (s :: List.concat_map (fun l -> nested l @ [ Code.Jstmt.S_expr (E_name l) ]) bodies)
              (List.rev (Code.Jstmt.fold (fun acc s -> s :: acc) [] s)))
          stmt_shapes);
    Alcotest.test_case "direct_expr is each statement's own expression" `Quick
      (fun () ->
        List.iter
          (fun (row, make, direct, _) ->
            check (Alcotest.option expr) row direct (Code.Jstmt.direct_expr (make nested)))
          stmt_shapes);
  ]

(* ---- jdecl / junit -------------------------------------------------------- *)

let mk_method name =
  {
    Code.Jdecl.method_name = name;
    method_mods = [ Code.Jdecl.M_public ];
    return_type = Code.Jtype.T_void;
    params = [];
    throws = [];
    body = Some [];
  }

let mk_class name =
  {
    Code.Jdecl.class_name = name;
    class_mods = [ Code.Jdecl.M_public ];
    extends = None;
    implements = [];
    fields = [];
    methods = [ mk_method "run" ];
  }

let decl_tests =
  [
    Alcotest.test_case "add_field deduplicates by name" `Quick (fun () ->
        let f =
          {
            Code.Jdecl.field_name = "x";
            field_type = Code.Jtype.T_int;
            field_mods = [];
            field_init = None;
          }
        in
        let c = Code.Jdecl.add_field f (Code.Jdecl.add_field f (mk_class "C")) in
        check ci "one field" 1 (List.length c.Code.Jdecl.fields));
    Alcotest.test_case "find_method" `Quick (fun () ->
        let c = mk_class "C" in
        check cb "found" true (Code.Jdecl.find_method c "run" <> None);
        check cb "missing" true (Code.Jdecl.find_method c "nope" = None));
    Alcotest.test_case "junit lookups and updates" `Quick (fun () ->
        let program =
          [ Code.Junit.unit_ ~package:"p" [ Code.Jdecl.Class (mk_class "C") ] ]
        in
        check cb "found" true (Code.Junit.find_class program "C" <> None);
        let program =
          Code.Junit.update_class program "C" (Code.Jdecl.add_method (mk_method "extra"))
        in
        check ci "methods" 2 (Code.Junit.total_methods program));
  ]

(* ---- generator ------------------------------------------------------------- *)

let generator_tests =
  let program = Code.Generator.generate (Fixtures.banking ()) in
  let account =
    match Code.Junit.find_class program "Account" with
    | Some c -> c
    | None -> Alcotest.fail "Account not generated"
  in
  [
    Alcotest.test_case "classes and packages" `Quick (fun () ->
        check ci "four classes" 4 (List.length (Code.Junit.classes program));
        check cb "package name from qualified name" true
          (List.exists (fun (u : Code.Junit.t) -> u.Code.Junit.package = "bank") program));
    Alcotest.test_case "attributes become private fields with accessors" `Quick
      (fun () ->
        check cb "balance field" true
          (List.exists
             (fun (f : Code.Jdecl.field) ->
               f.Code.Jdecl.field_name = "balance"
               && f.Code.Jdecl.field_type = Code.Jtype.T_double)
             account.Code.Jdecl.fields);
        check cb "getter" true (Code.Jdecl.find_method account "getBalance" <> None);
        check cb "setter" true (Code.Jdecl.find_method account "setBalance" <> None));
    Alcotest.test_case "operation stubs return defaults" `Quick (fun () ->
        match Code.Jdecl.find_method account "withdraw" with
        | Some m -> (
            check cb "boolean" true (m.Code.Jdecl.return_type = Code.Jtype.T_boolean);
            match m.Code.Jdecl.body with
            | Some body ->
                check cb "returns false" true
                  (List.exists
                     (fun s -> s = Code.Jstmt.S_return (Some (Code.Jexpr.E_bool false)))
                     body)
            | None -> Alcotest.fail "stub has no body")
        | None -> Alcotest.fail "withdraw missing");
    Alcotest.test_case "generalization becomes extends" `Quick (fun () ->
        match Code.Junit.find_class program "SavingsAccount" with
        | Some c -> check cb "extends" true (c.Code.Jdecl.extends = Some "Account")
        | None -> Alcotest.fail "SavingsAccount missing");
    Alcotest.test_case "navigable association ends become fields" `Quick
      (fun () ->
        (* Customer side gets 'accounts : List<Account>', Account side gets
           'owner : Customer' *)
        match Code.Junit.find_class program "Customer" with
        | Some customer ->
            check cb "accounts field" true
              (List.exists
                 (fun (f : Code.Jdecl.field) ->
                   f.Code.Jdecl.field_name = "accounts"
                   && f.Code.Jdecl.field_type
                      = Code.Jtype.T_list (Code.Jtype.T_named "Account"))
                 customer.Code.Jdecl.fields);
            check cb "owner field on Account" true
              (List.exists
                 (fun (f : Code.Jdecl.field) ->
                   f.Code.Jdecl.field_name = "owner"
                   && f.Code.Jdecl.field_type = Code.Jtype.T_named "Customer")
                 account.Code.Jdecl.fields)
        | None -> Alcotest.fail "Customer missing");
    Alcotest.test_case "List import added when needed" `Quick (fun () ->
        check cb "import" true
          (List.exists
             (fun (u : Code.Junit.t) -> List.mem "java.util.List" u.Code.Junit.imports)
             program));
    Alcotest.test_case "exclude_stereotypes filters classifiers" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        let m = Mof.Builder.add_stereotype m acct "infrastructure" in
        let filtered =
          Code.Generator.generate
            ~options:
              {
                Code.Generator.accessors = true;
                exclude_stereotypes = [ "infrastructure" ];
              }
            m
        in
        check cb "excluded" true (Code.Junit.find_class filtered "Account" = None);
        check cb "others kept" true (Code.Junit.find_class filtered "Teller" <> None));
    Alcotest.test_case "interfaces generate bodyless methods" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m, iface = Mof.Builder.add_interface m ~owner:(Mof.Model.root m) ~name:"Api" in
        let m, op = Mof.Builder.add_operation m ~owner:iface ~name:"ping" in
        let m = Mof.Builder.set_result m ~op ~typ:Mof.Kind.Dt_boolean in
        let program = Code.Generator.generate m in
        match find_interface program "Api" with
        | Some i ->
            check ci "one method" 1 (List.length i.Code.Jdecl.iface_methods);
            check cb "no body" true
              ((List.hd i.Code.Jdecl.iface_methods).Code.Jdecl.body = None)
        | None -> Alcotest.fail "interface missing");
    Alcotest.test_case "enumerations become constant classes" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m, _ =
          Mof.Builder.add_enumeration m ~owner:(Mof.Model.root m)
            ~name:"Currency" ~literals:[ "CHF"; "EUR" ]
        in
        let program = Code.Generator.generate m in
        match Code.Junit.find_class program "Currency" with
        | Some c ->
            check cb "final class" true
              (List.mem Code.Jdecl.M_final c.Code.Jdecl.class_mods);
            check cb "constant" true
              (List.exists
                 (fun (f : Code.Jdecl.field) ->
                   f.Code.Jdecl.field_name = "CHF"
                   && f.Code.Jdecl.field_init = Some (Code.Jexpr.E_string "CHF"))
                 c.Code.Jdecl.fields)
        | None -> Alcotest.fail "Currency not generated");
    Alcotest.test_case "accessors can be disabled" `Quick (fun () ->
        let program =
          Code.Generator.generate
            ~options:{ Code.Generator.accessors = false; exclude_stereotypes = [] }
            (Fixtures.banking ())
        in
        match Code.Junit.find_class program "Account" with
        | Some c -> check cb "no getter" true (Code.Jdecl.find_method c "getBalance" = None)
        | None -> Alcotest.fail "Account missing");
  ]

(* ---- printer ----------------------------------------------------------------- *)

let printer_tests =
  [
    Alcotest.test_case "expressions" `Quick (fun () ->
        check cs "call"
          "this.f(1, \"s\")"
          (expr_text
             (Code.Jexpr.E_call
                (Some Code.Jexpr.E_this, "f", [ Code.Jexpr.E_int 1; Code.Jexpr.E_string "s" ])));
        check cs "new" "new C()" (expr_text (Code.Jexpr.E_new ("C", [])));
        check cs "binary" "(a + b)"
          (expr_text
             (Code.Jexpr.E_binary ("+", Code.Jexpr.E_name "a", Code.Jexpr.E_name "b")));
        check cs "cast" "((int) x)"
          (expr_text
             (Code.Jexpr.E_cast (Code.Jtype.T_int, Code.Jexpr.E_name "x"))));
    Alcotest.test_case "string literal escaping" `Quick (fun () ->
        check cs "escaped" "\"a\\\"b\\\\c\\n\""
          (expr_text (Code.Jexpr.E_string "a\"b\\c\n")));
    Alcotest.test_case "statements" `Quick (fun () ->
        let s =
          Code.Jstmt.S_if
            ( Code.Jexpr.E_name "ok",
              [ Code.Jstmt.S_return None ],
              [ Code.Jstmt.S_throw (Code.Jexpr.E_new ("Error", [])) ] )
        in
        let text = Code.Printer.stmt_to_string s in
        check cb "if" true (contains text "if (ok) {");
        check cb "else" true (contains text "} else {");
        check cb "throw" true (contains text "throw new Error();"));
    Alcotest.test_case "try/catch/finally and sync" `Quick (fun () ->
        let s =
          Code.Jstmt.S_try
            ( [ Code.Jstmt.S_comment "body" ],
              [ (Code.Jtype.T_named "Exception", "e", [ Code.Jstmt.S_comment "handle" ]) ],
              [ Code.Jstmt.S_comment "cleanup" ] )
        in
        let text = Code.Printer.stmt_to_string s in
        check cb "catch" true (contains text "} catch (Exception e) {");
        check cb "finally" true (contains text "} finally {");
        let sync =
          Code.Printer.stmt_to_string
            (Code.Jstmt.S_sync (Code.Jexpr.E_this, [ Code.Jstmt.S_comment "x" ]))
        in
        check cb "sync" true (contains sync "synchronized (this) {"));
    Alcotest.test_case "full unit rendering" `Quick (fun () ->
        let program = Code.Generator.generate (Fixtures.banking ()) in
        let text = Code.Printer.program_to_string program in
        List.iter
          (fun needle -> check cb needle true (contains text needle))
          [
            "package bank;";
            "import java.util.List;";
            "public class Account {";
            "public class SavingsAccount extends Account {";
            "private double balance;";
            "public boolean withdraw(double amount) {";
            "// TODO: implement";
          ]);
    Alcotest.test_case "woven banking program bytes are pinned" `Quick
      (fun () ->
        (* five concerns cover every statement form the weaver emits: the
           mutex policy renders synchronized, reader-writer try/finally *)
        let names ns =
          Transform.Params.V_list
            (List.map (fun n -> Transform.Params.V_ident n) ns)
        in
        let woven policy =
          let project =
            List.fold_left
              (fun project (concern, params) ->
                match Core.Pipeline.refine project ~concern ~params with
                | Ok (project, _) -> project
                | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e))
              (Core.Project.create (Fixtures.banking ()))
              [
                ("distribution", [ ("remote", names [ "Account" ]) ]);
                ("transactions", [ ("transactional", names [ "Account" ]) ]);
                ("security", [ ("secured", names [ "Teller" ]) ]);
                ( "concurrency",
                  [
                    ("guarded", names [ "Account" ]);
                    ("policy", Transform.Params.V_string policy);
                  ] );
                ( "logging",
                  [
                    ( "targets",
                      Transform.Params.V_list [ Transform.Params.V_string "*" ]
                    );
                  ] );
              ]
          in
          match Core.Pipeline.build project with
          | Ok artifacts ->
              Code.Printer.program_to_string artifacts.Core.Artifacts.woven
          | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)
        in
        let mutex = woven "mutex" and rw = woven "reader-writer" in
        check cb "synchronized" true (contains mutex "synchronized (");
        check cb "finally" true (contains rw "} finally {");
        check cs "mutex md5" "82cdc5fc0d30ab9bd1ef3d9acad6d4d4" (Digest.to_hex (Digest.string mutex));
        check cs "reader-writer md5" "efca6f7caa0a69bc6534e371e9709895" (Digest.to_hex (Digest.string rw)));
  ]

(* ---- parser: print/parse round trip ---------------------------------------- *)

let roundtrip_unit (u : Code.Junit.t) =
  let text = Code.Printer.program_to_string [ u ] in
  match Jparser.parse_unit_opt text with
  | Ok u' -> Code.Junit.equal [ u ] [ u' ]
  | Error _ -> false

let parser_tests =
  [
    Alcotest.test_case "expression golden parses" `Quick (fun () ->
        let cases =
          [
            ("1 + 2 * 3", Code.Jexpr.E_binary ("+", Code.Jexpr.E_int 1,
               Code.Jexpr.E_binary ("*", Code.Jexpr.E_int 2, Code.Jexpr.E_int 3)));
            ("this.f(x)", Code.Jexpr.E_call (Some Code.Jexpr.E_this, "f",
               [ Code.Jexpr.E_name "x" ]));
            ("new C(1, \"s\")", Code.Jexpr.E_new ("C",
               [ Code.Jexpr.E_int 1; Code.Jexpr.E_string "s" ]));
            ("a = b = 1", Code.Jexpr.E_assign (Code.Jexpr.E_name "a",
               Code.Jexpr.E_assign (Code.Jexpr.E_name "b", Code.Jexpr.E_int 1)));
            ("((int) x)", Code.Jexpr.E_cast (Code.Jtype.T_int, Code.Jexpr.E_name "x"));
            ("(x instanceof C)", Code.Jexpr.E_instanceof (Code.Jexpr.E_name "x", "C"));
            ("!a && b || c", Code.Jexpr.E_binary ("||",
               Code.Jexpr.E_binary ("&&",
                 Code.Jexpr.E_unary ("!", Code.Jexpr.E_name "a"),
                 Code.Jexpr.E_name "b"),
               Code.Jexpr.E_name "c"));
            ("a.b.c", Code.Jexpr.E_field (Code.Jexpr.E_field (Code.Jexpr.E_name "a", "b"), "c"));
            ("0.5", Code.Jexpr.E_double 0.5);
            ("5.0", Code.Jexpr.E_double 5.0);
          ]
        in
        List.iter
          (fun (src, expected) ->
            check cb src true (Jparser.parse_expr src = expected))
          cases);
    Alcotest.test_case "cast vs parenthesized expression" `Quick (fun () ->
        check cb "paren expr" true
          (Jparser.parse_expr "(a) + 1"
          = Code.Jexpr.E_binary ("+", Code.Jexpr.E_name "a", Code.Jexpr.E_int 1));
        check cb "cast named" true
          (Jparser.parse_expr "((Account) x).f()"
          = Code.Jexpr.E_call
              (Some (Code.Jexpr.E_cast (Code.Jtype.T_named "Account", Code.Jexpr.E_name "x")),
               "f", [])));
    Alcotest.test_case "statement golden parses" `Quick (fun () ->
        check cb "local with init" true
          (Jparser.parse_stmt "TransactionManager tx = TransactionManager.current();"
          = Code.Jstmt.S_local
              ( Code.Jtype.T_named "TransactionManager",
                "tx",
                Some
                  (Code.Jexpr.E_call
                     (Some (Code.Jexpr.E_name "TransactionManager"), "current", [])) ));
        check cb "comment" true
          (Jparser.parse_stmt "// TODO: implement"
          = Code.Jstmt.S_comment "TODO: implement");
        check cb "sync" true
          (match Jparser.parse_stmt "synchronized (this) { return; }" with
          | Code.Jstmt.S_sync (Code.Jexpr.E_this, [ Code.Jstmt.S_return None ]) -> true
          | _ -> false);
        check cb "try/catch/finally" true
          (match
             Jparser.parse_stmt
               "try { f(); } catch (Exception e) { g(); } finally { h(); }"
           with
          | Code.Jstmt.S_try ([ _ ], [ (Code.Jtype.T_named "Exception", "e", [ _ ]) ], [ _ ]) ->
              true
          | _ -> false));
    Alcotest.test_case "statement round trips through the printer" `Quick
      (fun () ->
        List.iter
          (fun stmt ->
            let text = Code.Printer.stmt_to_string stmt in
            check cb text true (Jparser.parse_stmt text = stmt))
          [
            Code.Jstmt.S_if
              ( Code.Jexpr.E_binary ("<", Code.Jexpr.E_name "a", Code.Jexpr.E_int 2),
                [ Code.Jstmt.S_return (Some (Code.Jexpr.E_bool true)) ],
                [ Code.Jstmt.S_throw (Code.Jexpr.E_new ("Error", [])) ] );
            Code.Jstmt.S_while
              ( Code.Jexpr.E_bool true,
                [ Code.Jstmt.S_expr (Code.Jexpr.E_call (None, "step", [])) ] );
            Code.Jstmt.S_block [ Code.Jstmt.S_comment "inner" ];
            Code.Jstmt.S_local (Code.Jtype.T_list Code.Jtype.T_int, "xs", None);
          ]);
    Alcotest.test_case "generated banking unit round trips" `Quick (fun () ->
        let program = Code.Generator.generate (Fixtures.banking ()) in
        List.iter
          (fun u -> check cb u.Code.Junit.package true (roundtrip_unit u))
          program);
    Alcotest.test_case "enum constant class round trips" `Quick (fun () ->
        let m = Mof.Model.create ~name:"p" in
        let m, _ =
          Mof.Builder.add_enumeration m ~owner:(Mof.Model.root m)
            ~name:"Currency" ~literals:[ "CHF"; "EUR" ]
        in
        List.iter
          (fun u -> check cb "unit" true (roundtrip_unit u))
          (Code.Generator.generate m));
    Alcotest.test_case "woven program round trips" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        let project =
          match
            Core.Pipeline.refine project ~concern:"transactions"
              ~params:
                [
                  ( "transactional",
                    Transform.Params.V_list [ Transform.Params.V_ident "Account" ] );
                ]
          with
          | Ok (p, _) -> p
          | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)
        in
        let woven =
          (Result.get_ok (Core.Pipeline.build project)).Core.Artifacts.woven
        in
        List.iter
          (fun u -> check cb u.Code.Junit.package true (roundtrip_unit u))
          woven);
    Alcotest.test_case "parse errors are reported" `Quick (fun () ->
        List.iter
          (fun src ->
            check cb src true (Result.is_error (Jparser.parse_unit_opt src)))
          [
            "";
            "class C {}";
            "package p; class C {";
            "package p; class C { int 5x; }";
            "package p; enum E {}";
          ]);
  ]

let parser_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"generated code always round trips" ~count:40
        Gen.model_gen (fun m ->
          List.for_all roundtrip_unit (Code.Generator.generate m));
    ]

let () =
  Alcotest.run "code"
    [
      ("jtype", jtype_tests);
      ("traversals", traversal_tests);
      ("decls", decl_tests);
      ("generator", generator_tests);
      ("printer", printer_tests);
      ("parser", parser_tests @ parser_properties);
    ]
