(* Tests for the code-model interpreter, and — through it — behavioural
   tests of the woven pipeline: the event traces that the middleware
   runtime records must show each concern's advice firing in
   transformation-precedence order, committing on success and rolling back
   on injected faults. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let v_names names =
  Transform.Params.V_list (List.map (fun n -> Transform.Params.V_ident n) names)

let refine_exn project ~concern ~params =
  match Core.Pipeline.refine project ~concern ~params with
  | Ok (project, _) -> project
  | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)

let fig2_project () =
  let project = Core.Project.create (Fixtures.banking ()) in
  let project =
    refine_exn project ~concern:"distribution"
      ~params:[ ("remote", v_names [ "Account"; "Teller" ]) ]
  in
  let project =
    refine_exn project ~concern:"transactions"
      ~params:[ ("transactional", v_names [ "Account" ]) ]
  in
  refine_exn project ~concern:"security"
    ~params:[ ("secured", v_names [ "Teller" ]) ]

let fig2_woven () =
  match Core.Pipeline.build (fig2_project ()) with
  | Ok artifacts -> artifacts.Core.Artifacts.woven
  | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)

(* An event of [source].[action] whose rendered arguments contain
   [detail]. *)
let has_event ~source ~action ~detail (e : Interp.Event.t) =
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  String.equal e.Interp.Event.source source
  && String.equal e.Interp.Event.action action
  && contains e.Interp.Event.detail detail

(* [program] plus a Driver class whose [main] runs [body]: several calls on
   one heap, driven through [Machine.run]. *)
let run_driver ?(return_type = Code.Jtype.T_void) program body =
  let main =
    {
      Code.Jdecl.method_name = "main";
      method_mods = [ Code.Jdecl.M_public ];
      return_type;
      params = [];
      throws = [];
      body = Some body;
    }
  in
  let driver =
    {
      Code.Jdecl.class_name = "Driver";
      class_mods = [ Code.Jdecl.M_public ];
      extends = None;
      implements = [];
      fields = [];
      methods = [ main ];
    }
  in
  Interp.Machine.run
    (program @ [ Code.Junit.unit_ ~package:"test" [ Code.Jdecl.Class driver ] ])
    ~class_name:"Driver" ~method_name:"main"

(* Account a = new Account(); a.setBalance(v); a.getBalance(); *)
let account_round_trip v =
  let a = Some (Code.Jexpr.E_name "a") in
  [
    Code.Jstmt.S_local
      (Code.Jtype.T_named "Account", "a", Some (Code.Jexpr.E_new ("Account", [])));
    Code.Jstmt.S_expr (Code.Jexpr.E_call (a, "setBalance", [ Code.Jexpr.E_double v ]));
    Code.Jstmt.S_return (Some (Code.Jexpr.E_call (a, "getBalance", [])));
  ]

let event_sigs events =
  List.map (fun (e : Interp.Event.t) -> e.Interp.Event.source ^ "." ^ e.Interp.Event.action) events

(* ---- plain interpretation (no aspects) ----------------------------------- *)

let mk_method ?(params = []) ?(return_type = Code.Jtype.T_void) name body =
  {
    Code.Jdecl.method_name = name;
    method_mods = [ Code.Jdecl.M_public ];
    return_type;
    params;
    throws = [];
    body = Some body;
  }

let one_class_program methods fields =
  [
    Code.Junit.unit_ ~package:"t"
      [
        Code.Jdecl.Class
          {
            Code.Jdecl.class_name = "T";
            class_mods = [ Code.Jdecl.M_public ];
            extends = None;
            implements = [];
            fields;
            methods;
          };
      ];
  ]

let int_field name =
  {
    Code.Jdecl.field_name = name;
    field_type = Code.Jtype.T_int;
    field_mods = [ Code.Jdecl.M_private ];
    field_init = None;
  }

let basics_tests =
  [
    Alcotest.test_case "generated accessors round trip through the heap"
      `Quick (fun () ->
        let program = Code.Generator.generate (Fixtures.banking ()) in
        let outcome =
          run_driver ~return_type:Code.Jtype.T_double program (account_round_trip 75.5)
        in
        check cb "read back" true
          (outcome.Interp.Machine.result
          = Ok (Interp.Rvalue.V_double 75.5)));
    Alcotest.test_case "arithmetic, locals, and control flow" `Quick (fun () ->
        (* int f(int n) { int acc = 0; while (n > 0) { acc = acc + n; n = n - 1; } return acc; } *)
        let n = Code.Jexpr.E_name "n" and acc = Code.Jexpr.E_name "acc" in
        let body =
          [
            Code.Jstmt.S_local (Code.Jtype.T_int, "acc", Some (Code.Jexpr.E_int 0));
            Code.Jstmt.S_while
              ( Code.Jexpr.E_binary (">", n, Code.Jexpr.E_int 0),
                [
                  Code.Jstmt.S_expr
                    (Code.Jexpr.E_assign (acc, Code.Jexpr.E_binary ("+", acc, n)));
                  Code.Jstmt.S_expr
                    (Code.Jexpr.E_assign
                       (n, Code.Jexpr.E_binary ("-", n, Code.Jexpr.E_int 1)));
                ] );
            Code.Jstmt.S_return (Some acc);
          ]
        in
        let program =
          one_class_program
            [
              mk_method
                ~params:[ { Code.Jdecl.param_name = "n"; param_type = Code.Jtype.T_int } ]
                ~return_type:Code.Jtype.T_int "sum" body;
            ]
            []
        in
        let outcome =
          Interp.Machine.run program ~class_name:"T" ~method_name:"sum"
            ~args:[ Interp.Rvalue.V_int 5 ]
        in
        check cb "15" true (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_int 15)));
    Alcotest.test_case "field assignment through this" `Quick (fun () ->
        let body =
          [
            Code.Jstmt.S_expr
              (Code.Jexpr.E_assign
                 ( Code.Jexpr.E_field (Code.Jexpr.E_this, "state"),
                   Code.Jexpr.E_int 42 ));
            Code.Jstmt.S_return
              (Some (Code.Jexpr.E_field (Code.Jexpr.E_this, "state")));
          ]
        in
        let program =
          one_class_program
            [ mk_method ~return_type:Code.Jtype.T_int "poke" body ]
            [ int_field "state" ]
        in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"poke" in
        check cb "42" true (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_int 42)));
    Alcotest.test_case "exceptions: catch then finally; uncaught escapes"
      `Quick (fun () ->
        (* try { throw new RuntimeException(); } catch (Exception e) { state = 1; } finally { state2 = 2; } *)
        let set f v =
          Code.Jstmt.S_expr
            (Code.Jexpr.E_assign
               (Code.Jexpr.E_field (Code.Jexpr.E_this, f), Code.Jexpr.E_int v))
        in
        let body =
          [
            Code.Jstmt.S_try
              ( [ Code.Jstmt.S_throw (Code.Jexpr.E_new ("RuntimeException", [])) ],
                [ (Code.Jtype.T_named "Exception", "e", [ set "a" 1 ]) ],
                [ set "b" 2 ] );
            Code.Jstmt.S_return
              (Some
                 (Code.Jexpr.E_binary
                    ( "+",
                      Code.Jexpr.E_field (Code.Jexpr.E_this, "a"),
                      Code.Jexpr.E_field (Code.Jexpr.E_this, "b") )));
          ]
        in
        let program =
          one_class_program
            [ mk_method ~return_type:Code.Jtype.T_int "go" body ]
            [ int_field "a"; int_field "b" ]
        in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"go" in
        check cb "handled and finalized" true
          (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_int 3));
        (* uncaught: no handler for a mismatching class *)
        let body2 =
          [
            Code.Jstmt.S_throw (Code.Jexpr.E_new ("RuntimeException", []));
          ]
        in
        let program2 = one_class_program [ mk_method "boom" body2 ] [] in
        let outcome2 = Interp.Machine.run program2 ~class_name:"T" ~method_name:"boom" in
        check cb "escapes" true
          (outcome2.Interp.Machine.result = Error "RuntimeException"));
    Alcotest.test_case "synchronized blocks record monitor events" `Quick
      (fun () ->
        let body =
          [ Code.Jstmt.S_sync (Code.Jexpr.E_this, [ Code.Jstmt.S_comment "cs" ]) ]
        in
        let program = one_class_program [ mk_method "locked" body ] [] in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"locked" in
        check (Alcotest.list cs) "enter/exit"
          [ "Monitor.enter"; "Monitor.exit" ]
          (event_sigs outcome.Interp.Machine.events));
    Alcotest.test_case "string concatenation" `Quick (fun () ->
        let body =
          [
            Code.Jstmt.S_return
              (Some
                 (Code.Jexpr.E_binary
                    ("+", Code.Jexpr.E_string "n=", Code.Jexpr.E_int 7)));
          ]
        in
        let program =
          one_class_program [ mk_method ~return_type:Code.Jtype.T_string "s" body ] []
        in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"s" in
        check cb "concat" true
          (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_string "n=7")));
    Alcotest.test_case "virtual dispatch along extends" `Quick (fun () ->
        let base =
          {
            Code.Jdecl.class_name = "Base";
            class_mods = [];
            extends = None;
            implements = [];
            fields = [];
            methods = [ mk_method ~return_type:Code.Jtype.T_int "id" [ Code.Jstmt.S_return (Some (Code.Jexpr.E_int 1)) ] ];
          }
        in
        let derived =
          {
            Code.Jdecl.class_name = "Derived";
            class_mods = [];
            extends = Some "Base";
            implements = [];
            fields = [];
            methods = [];
          }
        in
        let program =
          [ Code.Junit.unit_ ~package:"t" [ Code.Jdecl.Class base; Code.Jdecl.Class derived ] ]
        in
        let outcome = Interp.Machine.run program ~class_name:"Derived" ~method_name:"id" in
        check cb "inherited" true
          (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_int 1)));
    Alcotest.test_case "null dereference surfaces as RuntimeException" `Quick
      (fun () ->
        let body =
          [
            Code.Jstmt.S_local (Code.Jtype.T_named "T", "x", Some Code.Jexpr.E_null);
            Code.Jstmt.S_expr
              (Code.Jexpr.E_call (Some (Code.Jexpr.E_name "x"), "run", []));
          ]
        in
        let program = one_class_program [ mk_method "npe" body ] [] in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"npe" in
        check cb "thrown" true
          (outcome.Interp.Machine.result = Error "RuntimeException"));
    Alcotest.test_case "instanceof and cast at runtime" `Quick (fun () ->
        let body =
          [
            Code.Jstmt.S_return
              (Some
                 (Code.Jexpr.E_binary
                    ( "&&",
                      Code.Jexpr.E_instanceof (Code.Jexpr.E_this, "T"),
                      Code.Jexpr.E_binary
                        ( "==",
                          Code.Jexpr.E_cast (Code.Jtype.T_named "T", Code.Jexpr.E_this),
                          Code.Jexpr.E_this ) )));
          ]
        in
        let program =
          one_class_program [ mk_method ~return_type:Code.Jtype.T_boolean "check" body ] []
        in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"check" in
        check cb "true" true
          (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_bool true)));
    Alcotest.test_case "finally runs even when the body returns" `Quick
      (fun () ->
        (* try { return 1; } finally { Logger.log("x","fin"); } *)
        let body =
          [
            Code.Jstmt.S_try
              ( [ Code.Jstmt.S_return (Some (Code.Jexpr.E_int 1)) ],
                [],
                [
                  Code.Jstmt.S_expr
                    (Code.Jexpr.E_call
                       ( Some (Code.Jexpr.E_name "Logger"),
                         "log",
                         [ Code.Jexpr.E_string "x"; Code.Jexpr.E_string "fin" ] ));
                ] );
          ]
        in
        let program =
          one_class_program [ mk_method ~return_type:Code.Jtype.T_int "go" body ] []
        in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"go" in
        check cb "returned" true (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_int 1));
        check (Alcotest.list cs) "finally logged" [ "Logger.log" ]
          (event_sigs outcome.Interp.Machine.events));
    Alcotest.test_case "calls chain through helper objects" `Quick (fun () ->
        (* T.outer() { Helper h = new Helper(); return h.triple(7); } *)
        let helper =
          {
            Code.Jdecl.class_name = "Helper";
            class_mods = [];
            extends = None;
            implements = [];
            fields = [];
            methods =
              [
                mk_method
                  ~params:[ { Code.Jdecl.param_name = "n"; param_type = Code.Jtype.T_int } ]
                  ~return_type:Code.Jtype.T_int "triple"
                  [
                    Code.Jstmt.S_return
                      (Some
                         (Code.Jexpr.E_binary
                            ("*", Code.Jexpr.E_name "n", Code.Jexpr.E_int 3)));
                  ];
              ];
          }
        in
        let outer =
          mk_method ~return_type:Code.Jtype.T_int "outer"
            [
              Code.Jstmt.S_local
                ( Code.Jtype.T_named "Helper",
                  "h",
                  Some (Code.Jexpr.E_new ("Helper", [])) );
              Code.Jstmt.S_return
                (Some
                   (Code.Jexpr.E_call
                      (Some (Code.Jexpr.E_name "h"), "triple", [ Code.Jexpr.E_int 7 ])));
            ]
        in
        let program =
          [
            Code.Junit.unit_ ~package:"t"
              [
                Code.Jdecl.Class
                  {
                    Code.Jdecl.class_name = "T";
                    class_mods = [];
                    extends = None;
                    implements = [];
                    fields = [];
                    methods = [ outer ];
                  };
                Code.Jdecl.Class helper;
              ];
          ]
        in
        let outcome = Interp.Machine.run program ~class_name:"T" ~method_name:"outer" in
        check cb "21" true (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_int 21)));
    Alcotest.test_case "unknown method is a runtime error, not a Java throw"
      `Quick (fun () ->
        let program = one_class_program [ mk_method "x" [] ] [] in
        check cb "raises" true
          (try
             ignore (Interp.Machine.run program ~class_name:"T" ~method_name:"nope");
             false
           with Interp.Machine.Runtime_error _ -> true));
  ]

(* ---- behavioural closure of Fig. 2 ----------------------------------------- *)

let woven_tests =
  [
    Alcotest.test_case
      "woven Account.deposit: export, begin, commit — in precedence order"
      `Quick (fun () ->
        let outcome =
          Interp.Machine.run (fig2_woven ()) ~class_name:"Account"
            ~method_name:"deposit"
            ~args:[ Interp.Rvalue.V_double 10.0 ]
        in
        check cb "completed" true (outcome.Interp.Machine.result = Ok Interp.Rvalue.V_null);
        check (Alcotest.list cs) "event order"
          [
            "RemoteRuntime.ensureExported";
            "TransactionManager.begin";
            "TransactionManager.commit";
          ]
          (event_sigs outcome.Interp.Machine.events));
    Alcotest.test_case
      "woven Teller.transfer: distribution advice precedes security advice"
      `Quick (fun () ->
        let outcome =
          Interp.Machine.run (fig2_woven ()) ~class_name:"Teller"
            ~method_name:"transfer"
            ~args:
              [ Interp.Rvalue.V_null; Interp.Rvalue.V_null; Interp.Rvalue.V_double 1.0 ]
        in
        check (Alcotest.list cs) "event order"
          [
            "RemoteRuntime.ensureExported";
            "SecurityContext.currentPrincipal";
            "AccessController.check";
          ]
          (event_sigs outcome.Interp.Machine.events));
    Alcotest.test_case "unwoven functional code emits no middleware events"
      `Quick (fun () ->
        let functional = Core.Pipeline.functional_code (fig2_project ()) in
        let outcome =
          Interp.Machine.run functional ~class_name:"Account" ~method_name:"deposit"
            ~args:[ Interp.Rvalue.V_double 10.0 ]
        in
        check ci "silent" 0 (List.length outcome.Interp.Machine.events));
    Alcotest.test_case "injected fault rolls the transaction back" `Quick
      (fun () ->
        (* make deposit call an auditing helper, inject the fault there: the
           transaction aspect must roll back instead of committing *)
        let woven =
          let project = fig2_project () in
          let functional = Core.Pipeline.functional_code project in
          let functional =
            Code.Junit.update_class functional "Account"
              (fun c ->
                let c =
                  Code.Jdecl.add_method
                    (mk_method "audit" [ Code.Jstmt.S_comment "audit" ])
                    c
                in
                Code.Jdecl.map_methods
                  (fun m ->
                    if m.Code.Jdecl.method_name = "deposit" then
                      {
                        m with
                        Code.Jdecl.body =
                          Some
                            [
                              Code.Jstmt.S_expr
                                (Code.Jexpr.E_call (None, "audit", []));
                            ];
                      }
                    else m)
                  c)
          in
          let generated = Result.get_ok (Core.Pipeline.aspects project) in
          (Weaver.Weave.weave generated functional).Weaver.Weave.program
        in
        let outcome =
          Interp.Machine.run
            ~faults:[ ("Account", "audit") ]
            woven ~class_name:"Account" ~method_name:"deposit"
            ~args:[ Interp.Rvalue.V_double 10.0 ]
        in
        check cb "exception escapes" true
          (outcome.Interp.Machine.result = Error "RuntimeException");
        let sigs = event_sigs outcome.Interp.Machine.events in
        check cb "began" true (List.mem "TransactionManager.begin" sigs);
        check cb "rolled back" true (List.mem "TransactionManager.rollback" sigs);
        check cb "did not commit" false (List.mem "TransactionManager.commit" sigs));
    Alcotest.test_case
      "known limitation pinned: value-returning around skips the commit"
      `Quick (fun () ->
        (* the code-model weaver splices bodies at proceed(); a return inside
           the spliced body returns past the advice epilogue (EXPERIMENTS.md,
           limitations). This test pins that behaviour. *)
        let outcome =
          Interp.Machine.run (fig2_woven ()) ~class_name:"Account"
            ~method_name:"withdraw"
            ~args:[ Interp.Rvalue.V_double 10.0 ]
        in
        check cb "returned" true
          (outcome.Interp.Machine.result = Ok (Interp.Rvalue.V_bool false));
        let sigs = event_sigs outcome.Interp.Machine.events in
        check cb "began" true (List.mem "TransactionManager.begin" sigs);
        check cb "commit skipped (documented)" false
          (List.mem "TransactionManager.commit" sigs));
    Alcotest.test_case "concern parameters surface in the event details"
      `Quick (fun () ->
        let outcome =
          Interp.Machine.run (fig2_woven ()) ~class_name:"Account"
            ~method_name:"deposit"
            ~args:[ Interp.Rvalue.V_double 10.0 ]
        in
        check cb "registry address" true
          (List.exists
             (has_event ~source:"RemoteRuntime" ~action:"ensureExported"
                ~detail:"localhost:1099")
             outcome.Interp.Machine.events);
        check cb "isolation level" true
          (List.exists
             (has_event ~source:"TransactionManager" ~action:"begin"
                ~detail:"serializable")
             outcome.Interp.Machine.events));
    Alcotest.test_case "concurrency aspect produces monitor events at runtime"
      `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        let project =
          refine_exn project ~concern:"concurrency"
            ~params:[ ("guarded", v_names [ "Account" ]) ]
        in
        let woven =
          (Result.get_ok (Core.Pipeline.build project)).Core.Artifacts.woven
        in
        let outcome =
          Interp.Machine.run woven ~class_name:"Account" ~method_name:"deposit"
            ~args:[ Interp.Rvalue.V_double 1.0 ]
        in
        check (Alcotest.list cs) "monitor bracket"
          [ "Monitor.enter"; "Monitor.exit" ]
          (event_sigs outcome.Interp.Machine.events));
    Alcotest.test_case "logging aspect emits enter and exit events" `Quick
      (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        let project =
          refine_exn project ~concern:"logging"
            ~params:
              [
                ( "targets",
                  Transform.Params.V_list [ Transform.Params.V_string "Teller" ] );
              ]
        in
        let woven =
          (Result.get_ok (Core.Pipeline.build project)).Core.Artifacts.woven
        in
        let outcome =
          Interp.Machine.run woven ~class_name:"Teller" ~method_name:"transfer"
            ~args:
              [ Interp.Rvalue.V_null; Interp.Rvalue.V_null; Interp.Rvalue.V_double 1.0 ]
        in
        check cb "enter logged" true
          (List.exists
             (has_event ~source:"Logger" ~action:"log"
                ~detail:"enter execution(Teller.transfer)")
             outcome.Interp.Machine.events);
        check cb "exit logged" true
          (List.exists
             (has_event ~source:"Logger" ~action:"log"
                ~detail:"exit execution(Teller.transfer)")
             outcome.Interp.Machine.events));
    Alcotest.test_case "messaging aspect publishes before the async operation"
      `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        let project =
          refine_exn project ~concern:"messaging"
            ~params:
              [
                ("async", v_names [ "Account.deposit" ]);
                ("queue", Transform.Params.V_string "payments");
              ]
        in
        let woven =
          (Result.get_ok (Core.Pipeline.build project)).Core.Artifacts.woven
        in
        let outcome =
          Interp.Machine.run woven ~class_name:"Account" ~method_name:"deposit"
            ~args:[ Interp.Rvalue.V_double 1.0 ]
        in
        check cb "published" true
          (List.exists
             (has_event ~source:"MessageQueue" ~action:"publish"
                ~detail:"payments, execution(Account.deposit)")
             outcome.Interp.Machine.events);
        (* the non-async operation stays silent *)
        let silent =
          Interp.Machine.run woven ~class_name:"Account" ~method_name:"withdraw"
            ~args:[ Interp.Rvalue.V_double 1.0 ]
        in
        check ci "no events" 0 (List.length silent.Interp.Machine.events));
    Alcotest.test_case
      "persistence aspect: setters mark dirty, getters ensure loaded" `Quick
      (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        let project =
          refine_exn project ~concern:"persistence"
            ~params:[ ("persistent", v_names [ "Account" ]) ]
        in
        let woven =
          (Result.get_ok (Core.Pipeline.build project)).Core.Artifacts.woven
        in
        check (Alcotest.list cs) "dirty then loaded"
          [ "PersistenceManager.markDirty"; "PersistenceManager.ensureLoaded" ]
          (event_sigs (run_driver woven (account_round_trip 5.0)).Interp.Machine.events));
  ]

(* ---- what class and method lookup means ------------------------------------ *)

let class_decl ?extends ?(fields = []) name methods =
  Code.Jdecl.Class
    {
      Code.Jdecl.class_name = name;
      class_mods = [];
      extends;
      implements = [];
      fields;
      methods;
    }

(* One line per outcome: the returned value or escaping exception with the
   event signatures, or the interpreter's error text. *)
let outcome_line ?(faults = []) ?(args = []) program ~class_name ~method_name =
  match Interp.Machine.run ~faults ~args program ~class_name ~method_name with
  | { Interp.Machine.result; events } ->
      Printf.sprintf "%s [%s]"
        (match result with
        | Ok v -> "returned " ^ Interp.Rvalue.to_string v
        | Error cls -> "threw " ^ cls)
        (String.concat "; " (event_sigs events))
  | exception Interp.Machine.Runtime_error msg -> "error: " ^ msg

let lookup_tests =
  let open Code in
  let returning n stmts = stmts @ [ Jstmt.S_return (Some n) ] in
  let int_method name stmts n =
    mk_method ~return_type:Jtype.T_int name (returning (Jexpr.E_int n) stmts)
  in
  let log msg =
    Jstmt.S_expr
      (Jexpr.E_call (Some (Jexpr.E_name "Logger"), "log", [ Jexpr.E_string msg ]))
  in
  let field name field_type =
    { Jdecl.field_name = name; field_type; field_mods = []; field_init = None }
  in
  let this_field f = Jexpr.E_field (Jexpr.E_this, f) in
  let unit_ decls = Junit.unit_ ~package:"t" decls in
  let twice_declared =
    [
      unit_ [ class_decl "A" [ int_method "id" [] 1 ] ];
      unit_ [ class_decl "A" [ int_method "id" [] 2 ] ];
    ]
  in
  let behind_interface =
    [
      unit_
        [
          Jdecl.Interface
            {
              Jdecl.iface_name = "A";
              iface_extends = [];
              iface_methods = [ { (int_method "id" [] 0) with Jdecl.body = None } ];
            };
          class_decl "A" [ int_method "id" [] 1 ];
        ];
    ]
  in
  (* Sub is declared before the unit holding its superclass *)
  let inherited =
    [
      unit_ [ class_decl ~extends:"Base" "Sub" [] ];
      unit_ [ class_decl "Base" [ int_method "ping" [ log "ping" ] 7 ] ];
    ]
  in
  let inherited_fields =
    (* this.count = this.count + 5; if (this.label == null) log; return this.count; *)
    let bump =
      mk_method ~return_type:Jtype.T_int "bump"
        (returning (this_field "count")
           [
             Jstmt.S_expr
               (Jexpr.E_assign
                  ( this_field "count",
                    Jexpr.E_binary ("+", this_field "count", Jexpr.E_int 5) ));
             Jstmt.S_if
               ( Jexpr.E_binary ("==", this_field "label", Jexpr.E_null),
                 [ log "unlabelled" ],
                 [] );
           ])
    in
    [
      unit_
        [
          class_decl ~extends:"Base" ~fields:[ field "flag" Jtype.T_boolean ] "Sub"
            [ bump ];
          class_decl
            ~fields:[ field "count" Jtype.T_int; field "label" Jtype.T_string ]
            "Base" [];
        ];
    ]
  in
  (* NotFound <: AppError <: RuntimeException; go/wide/miss throw a NotFound
     and catch it as AppError, Exception and an unrelated class, and
     fatal/unchecked throw the builtin Error and catch it as Throwable and
     Exception *)
  let exceptions =
    let throwing ?(thrown = "NotFound") name catch_cls =
      int_method name
        [
          Jstmt.S_try
            ( [ Jstmt.S_throw (Jexpr.E_new (thrown, [])) ],
              [
                ( Jtype.T_named catch_cls,
                  "e",
                  [ log "caught"; Jstmt.S_return (Some (Jexpr.E_int 1)) ] );
              ],
              [] );
        ]
        0
    in
    [
      unit_
        [
          class_decl "T"
            [
              throwing "go" "AppError";
              throwing "wide" "Exception";
              throwing "miss" "T";
              throwing ~thrown:"Error" "fatal" "Throwable";
              throwing ~thrown:"Error" "unchecked" "Exception";
            ];
          class_decl ~extends:"AppError" "NotFound" [];
        ];
      unit_ [ class_decl ~extends:"RuntimeException" "AppError" [] ];
    ]
  in
  (* locals, fields, singletons and heap references: what the machine's
     per-call state holds *)
  let state =
    let name n = Jexpr.E_name n in
    let assign lhs rhs = Jstmt.S_expr (Jexpr.E_assign (lhs, rhs)) in
    let local typ n init = Jstmt.S_local (typ, n, Some init) in
    let bump n = assign (name n) (Jexpr.E_binary ("+", name n, Jexpr.E_int 1)) in
    let current =
      Jexpr.E_call (Some (Jexpr.E_name "TransactionManager"), "current", [])
    in
    (* sum = sum * 10 + v for a v declared afresh in each of three rounds *)
    let redeclared =
      mk_method ~return_type:Jtype.T_int "redeclared"
        [
          local Jtype.T_int "sum" (Jexpr.E_int 0);
          local Jtype.T_int "i" (Jexpr.E_int 0);
          Jstmt.S_while
            ( Jexpr.E_binary ("<", name "i", Jexpr.E_int 3),
              [
                local Jtype.T_int "v" (Jexpr.E_binary ("+", name "i", Jexpr.E_int 1));
                assign (name "sum")
                  (Jexpr.E_binary
                     ("+", Jexpr.E_binary ("*", name "sum", Jexpr.E_int 10), name "v"));
                bump "i";
              ] );
          Jstmt.S_return (Some (name "sum"));
        ]
    in
    (* note = 4; return note * 10 + this.note; with no field note declared *)
    let stash =
      mk_method ~return_type:Jtype.T_int "stash"
        [
          assign (name "note") (Jexpr.E_int 4);
          Jstmt.S_return
            (Some
               (Jexpr.E_binary
                  ( "+",
                    Jexpr.E_binary ("*", name "note", Jexpr.E_int 10),
                    this_field "note" )));
        ]
    in
    let same =
      mk_method ~return_type:Jtype.T_boolean "same"
        [ Jstmt.S_return (Some (Jexpr.E_binary ("==", current, current))) ]
    in
    (* push 20 Nodes onto a list, then sum their ids from the head *)
    let chain =
      let field_of n f = Jexpr.E_field (name n, f) in
      mk_method ~return_type:Jtype.T_int "chain"
        [
          local (Jtype.T_named "Node") "head" Jexpr.E_null;
          local Jtype.T_int "i" (Jexpr.E_int 0);
          Jstmt.S_while
            ( Jexpr.E_binary ("<", name "i", Jexpr.E_int 20),
              [
                local (Jtype.T_named "Node") "n" (Jexpr.E_new ("Node", []));
                assign (field_of "n" "id") (name "i");
                assign (field_of "n" "next") (name "head");
                assign (name "head") (name "n");
                bump "i";
              ] );
          local Jtype.T_int "sum" (Jexpr.E_int 0);
          Jstmt.S_while
            ( Jexpr.E_binary ("!=", name "head", Jexpr.E_null),
              [
                assign (name "sum")
                  (Jexpr.E_binary ("+", name "sum", field_of "head" "id"));
                assign (name "head") (field_of "head" "next");
              ] );
          Jstmt.S_return (Some (name "sum"));
        ]
    in
    let take =
      mk_method "take"
        ~params:[ { Jdecl.param_name = "o"; param_type = Jtype.T_named "Node" } ]
        [
          Jstmt.S_expr
            (Jexpr.E_call (Some (Jexpr.E_name "Logger"), "log", [ name "o" ]));
        ]
    in
    [
      unit_
        [
          class_decl "T" [ redeclared; stash; same; chain; take ];
          class_decl
            ~fields:[ field "id" Jtype.T_int; field "next" (Jtype.T_named "Node") ]
            "Node" [];
        ];
    ]
  in
  let table =
    [
      ( "two units declare A: the first unit's A runs",
        twice_declared, ("A", "id", [], []), "returned 1 []" );
      ( "an interface A before a class A: the class runs",
        behind_interface, ("A", "id", [], []), "returned 1 []" );
      ( "a method inherited from a superclass in a later unit",
        inherited, ("Sub", "ping", [], []), "returned 7 [Logger.log]" );
      ( "inherited fields default-initialize and take assignment",
        inherited_fields, ("Sub", "bump", [], []), "returned 5 [Logger.log]" );
      ( "a fault naming the declaring class fires on an inherited method",
        inherited, ("Sub", "ping", [ ("Base", "ping") ], []),
        "threw RuntimeException [FaultInjector.throw]" );
      ( "a fault naming the subclass does not fire on an inherited method",
        inherited, ("Sub", "ping", [ ("Sub", "ping") ], []), "returned 7 [Logger.log]" );
      ( "run on an unknown class",
        inherited, ("Nope", "ping", [], []), "error: unknown class Nope" );
      ( "run on the undeclared builtin RuntimeException",
        inherited, ("RuntimeException", "ping", [], []),
        "error: class RuntimeException has no method ping" );
      ( "a program exception is caught by its declared superclass",
        exceptions, ("T", "go", [], []), "returned 1 [Logger.log]" );
      ( "a program exception is caught as Exception up its chain",
        exceptions, ("T", "wide", [], []), "returned 1 [Logger.log]" );
      ( "a program exception escapes a handler for an unrelated class",
        exceptions, ("T", "miss", [], []), "threw NotFound []" );
      ( "an Error is caught as Throwable",
        exceptions, ("T", "fatal", [], []), "returned 1 [Logger.log]" );
      ( "an Error escapes a handler for Exception",
        exceptions, ("T", "unchecked", [], []), "threw Error []" );
      ( "a local redeclared in a while body reads its latest value",
        state, ("T", "redeclared", [], []), "returned 123 []" );
      ( "an assignment to an undeclared name lands on this's fields",
        state, ("T", "stash", [], []), "returned 44 []" );
      ( "TransactionManager.current() is one instance within a run",
        state, ("T", "same", [], []), "returned true []" );
      ( "references stay valid past the heap's first capacity",
        state, ("T", "chain", [], []), "returned 190 []" );
      ( "a caller-supplied reference past the heap is dangling",
        state, ("T", "take", [], [ Interp.Rvalue.V_object 99 ]),
        "error: dangling heap reference @99" );
      ( "a caller-supplied reference inside the heap's capacity is dangling",
        state, ("T", "take", [], [ Interp.Rvalue.V_object 3 ]),
        "error: dangling heap reference @3" );
    ]
  in
  List.map
    (fun (name, program, (class_name, method_name, faults, args), want) ->
      Alcotest.test_case name `Quick (fun () ->
          check cs name want
            (outcome_line ~faults ~args program ~class_name ~method_name)))
    table

(* Minor-heap words one [Machine.run] allocates, calling [m0] of the last
   class of a synthetic PIM of [classes] classes with that class
   transactional. Allocation counts repeat exactly, so this is no timing. *)
let words_per_run classes =
  let target = Printf.sprintf "C%d" (classes - 1) in
  let project =
    Core.Project.create
      (Par.Workload.synthetic ~classes (Printf.sprintf "run%d" classes))
  in
  let project =
    refine_exn project ~concern:"transactions"
      ~params:[ ("transactional", v_names [ target ]) ]
  in
  let woven = (Result.get_ok (Core.Pipeline.build project)).Core.Artifacts.woven in
  let run () =
    Interp.Machine.run woven ~class_name:target ~method_name:"m0"
      ~args:[ Interp.Rvalue.V_int 1 ]
  in
  check (Alcotest.list cs) "woven call runs its advice"
    [ "TransactionManager.begin" ]
    (event_sigs (run ()).Interp.Machine.events);
  let n = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (run ())
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let cost_tests =
  [
    Alcotest.test_case "a call allocates no more at 192 classes than at 24"
      `Quick (fun () ->
        let small = words_per_run 24 and large = words_per_run 192 in
        if large > 1.25 *. small then
          Alcotest.failf "%.0f words per run at 192 classes, %.0f at 24" large
            small);
  ]

let () =
  Alcotest.run "interp"
    [
      ("basics", basics_tests);
      ("woven-behaviour", woven_tests);
      ("lookup", lookup_tests);
      ("cost", cost_tests);
    ]
