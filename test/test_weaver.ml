(* Tests for the static weaver: join points, matching, each advice kind's
   weaving semantics, inter-type members, and precedence. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let ( &&& ) a b = Aspects.Pointcut.And (a, b)
let ( ||| ) a b = Aspects.Pointcut.Or (a, b)
let not_ a = Aspects.Pointcut.Not a

(* A tiny program: class Service { void handle() { helper.run(); this.state = 1; }
   void other() {} } plus class Helper { void run() {} }. *)
let mk_program () =
  let handle_body =
    [
      Code.Jstmt.S_local
        (Code.Jtype.T_named "Helper", "helper", Some (Code.Jexpr.E_new ("Helper", [])));
      Code.Jstmt.S_expr (Code.Jexpr.E_call (Some (Code.Jexpr.E_name "helper"), "run", []));
      Code.Jstmt.S_expr
        (Code.Jexpr.E_assign
           (Code.Jexpr.E_field (Code.Jexpr.E_this, "state"), Code.Jexpr.E_int 1));
    ]
  in
  let mk_method name body =
    {
      Code.Jdecl.method_name = name;
      method_mods = [ Code.Jdecl.M_public ];
      return_type = Code.Jtype.T_void;
      params = [];
      throws = [];
      body = Some body;
    }
  in
  let service =
    {
      Code.Jdecl.class_name = "Service";
      class_mods = [ Code.Jdecl.M_public ];
      extends = None;
      implements = [];
      fields =
        [
          {
            Code.Jdecl.field_name = "state";
            field_type = Code.Jtype.T_int;
            field_mods = [ Code.Jdecl.M_private ];
            field_init = None;
          };
        ];
      methods = [ mk_method "handle" handle_body; mk_method "other" [] ];
    }
  in
  let helper =
    {
      Code.Jdecl.class_name = "Helper";
      class_mods = [ Code.Jdecl.M_public ];
      extends = None;
      implements = [];
      fields = [];
      methods = [ mk_method "run" [] ];
    }
  in
  [ Code.Junit.unit_ ~package:"app" [ Code.Jdecl.Class service; Code.Jdecl.Class helper ] ]

let body_of program cls name =
  match Code.Junit.find_class program cls with
  | Some c -> (
      match Code.Jdecl.find_method c name with
      | Some m -> Option.value ~default:[] m.Code.Jdecl.body
      | None -> Alcotest.fail ("method missing: " ^ name))
  | None -> Alcotest.fail ("class missing: " ^ cls)

let body_text program cls name =
  String.concat "\n" (List.map Code.Printer.stmt_to_string (body_of program cls name))

let marker text = Code.Jstmt.S_comment text

let aspect_with ?(name = "A") advices =
  Aspects.Aspect.make ~name ~concern:"test" ~advices ()

(* ---- join points ------------------------------------------------------- *)

let joinpoint_tests =
  [
    Alcotest.test_case "execution shadows enumerate bodied methods" `Quick
      (fun () ->
        let shadows = Weaver.Joinpoint.execution_shadows (mk_program ()) in
        check ci "three" 3 (List.length shadows));
    Alcotest.test_case "describe" `Quick (fun () ->
        check cs "execution" "execution(A.f)"
          (Weaver.Joinpoint.describe
             (Weaver.Joinpoint.Sh_execution { class_name = "A"; method_name = "f" })));
    Alcotest.test_case "enclosing_class" `Quick (fun () ->
        check cs "call" "W"
          (Weaver.Joinpoint.enclosing_class
             (Weaver.Joinpoint.Sh_call
                {
                  within_class = "W";
                  within_method = "m";
                  receiver_class = None;
                  method_name = "f";
                })));
    Alcotest.test_case "all_shadows keeps program order through nested bodies"
      `Quick (fun () ->
        let open Code.Jstmt in
        let call recv name = Code.Jexpr.E_call (Some (Code.Jexpr.E_name recv), name, []) in
        let run recv name = S_expr (call recv name) in
        let set_n e =
          S_expr (Code.Jexpr.E_assign (Code.Jexpr.E_field (Code.Jexpr.E_this, "n"), e))
        in
        let catch_all body = [ (Code.Jtype.T_named "Exception", "x", body) ] in
        (* h is a Helper field, p a Helper parameter; every construct appears
           at depth one and again nested at depth two *)
        let body =
          [
            run "h" "a";
            S_if
              ( call "p" "b",
                [ S_while (call "h" "c", [ set_n (call "p" "d") ]) ],
                [
                  S_try
                    ( [ run "h" "e" ],
                      catch_all [ S_sync (call "h" "f", [ run "p" "g" ]) ],
                      [ S_block [ run "h" "i" ] ] );
                ] );
            S_while
              (call "p" "j", [ S_if (call "h" "k", [ run "h" "l" ], [ run "p" "m" ]) ]);
            S_try
              ( [ S_block [ run "p" "o" ] ],
                catch_all [ set_n (Code.Jexpr.E_int 2) ],
                [ S_while (call "h" "q", [ run "h" "r" ]) ] );
            S_sync
              ( Code.Jexpr.E_call (Some Code.Jexpr.E_this, "lock", []),
                [ S_try ([ run "p" "s" ], [], [ set_n (call "p" "t") ]) ] );
            S_block [ S_if (call "p" "u", [ run "h" "v" ], []) ];
            S_return (Some (call "h" "w"));
          ]
        in
        let nest =
          {
            Code.Jdecl.class_name = "Nest";
            class_mods = [];
            extends = None;
            implements = [];
            fields =
              [
                {
                  Code.Jdecl.field_name = "h";
                  field_type = Code.Jtype.T_named "Helper";
                  field_mods = [];
                  field_init = None;
                };
              ];
            methods =
              [
                {
                  Code.Jdecl.method_name = "work";
                  method_mods = [];
                  return_type = Code.Jtype.T_int;
                  params =
                    [ { Code.Jdecl.param_name = "p"; param_type = Code.Jtype.T_named "Helper" } ];
                  throws = [];
                  body = Some body;
                };
              ];
          }
        in
        let program = [ Code.Junit.unit_ ~package:"app" [ Code.Jdecl.Class nest ] ] in
        check (Alcotest.list cs) "program order"
          [
            "execution(Nest.work)"; "call(Helper.a)"; "call(Helper.b)";
            "call(Helper.c)"; "call(Helper.d)"; "set(Nest.n)"; "call(Helper.e)";
            "call(Helper.f)"; "call(Helper.g)"; "call(Helper.i)"; "call(Helper.j)";
            "call(Helper.k)"; "call(Helper.l)"; "call(Helper.m)"; "call(Helper.o)";
            "set(Nest.n)"; "call(Helper.q)"; "call(Helper.r)"; "call(Nest.lock)";
            "call(Helper.s)"; "call(Helper.t)"; "set(Nest.n)"; "call(Helper.u)";
            "call(Helper.v)"; "call(Helper.w)";
          ]
          (List.map Weaver.Joinpoint.describe (Weaver.Joinpoint.all_shadows program)));
  ]

(* ---- matcher ------------------------------------------------------------- *)

let matcher_tests =
  let exec = Weaver.Joinpoint.Sh_execution { class_name = "Service"; method_name = "handle" } in
  let call_known =
    Weaver.Joinpoint.Sh_call
      {
        within_class = "Service";
        within_method = "handle";
        receiver_class = Some "Helper";
        method_name = "run";
      }
  in
  let call_unknown =
    Weaver.Joinpoint.Sh_call
      {
        within_class = "Service";
        within_method = "handle";
        receiver_class = None;
        method_name = "run";
      }
  in
  let field_set =
    Weaver.Joinpoint.Sh_field_set
      {
        within_class = "Service";
        within_method = "handle";
        target_class = "Service";
        field_name = "state";
      }
  in
  let open Aspects.Pointcut in
  [
    Alcotest.test_case "kinded pointcuts only match their kind" `Quick (fun () ->
        check cb "exec/exec" true (Weaver.Matcher.matches (execution "Service" "*") exec);
        check cb "exec/call" false (Weaver.Matcher.matches (execution "*" "*") call_known);
        check cb "call/exec" false (Weaver.Matcher.matches (call "*" "*") exec);
        check cb "set/set" true (Weaver.Matcher.matches (set_field "Service" "state") field_set));
    Alcotest.test_case "call matching uses the receiver class" `Quick (fun () ->
        check cb "known receiver" true
          (Weaver.Matcher.matches (call "Helper" "run") call_known);
        check cb "wrong class" false
          (Weaver.Matcher.matches (call "Service" "run") call_known);
        (* unresolved receivers match optimistically: any class pattern
           could describe the runtime receiver, so only the method
           pattern filters *)
        check cb "unknown receiver vs named pattern" true
          (Weaver.Matcher.matches (call "Helper" "run") call_unknown);
        check cb "unknown receiver vs wildcard pattern" true
          (Weaver.Matcher.matches (call "Help*" "run") call_unknown);
        check cb "unknown receiver vs star" true
          (Weaver.Matcher.matches (call "*" "run") call_unknown);
        check cb "unknown receiver, method still filters" false
          (Weaver.Matcher.matches (call "Helper" "walk") call_unknown));
    Alcotest.test_case "within matches any shadow kind" `Quick (fun () ->
        check cb "exec" true (Weaver.Matcher.matches (within "Service") exec);
        check cb "call" true (Weaver.Matcher.matches (within "Service") call_known);
        check cb "mismatch" false (Weaver.Matcher.matches (within "Other") exec));
    Alcotest.test_case "boolean combinators" `Quick (fun () ->
        check cb "and" true
          (Weaver.Matcher.matches (execution "Service" "*" &&& within "Service") exec);
        check cb "or" true
          (Weaver.Matcher.matches (execution "Nope" "*" ||| within "Service") exec);
        check cb "not" false
          (Weaver.Matcher.matches (not_ (execution "Service" "*")) exec));
  ]

(* The matcher is a boolean algebra over shadows: De Morgan, double
   negation, and totality must hold for every pointcut x shadow pair, not
   just the handcrafted ones above. *)
let matcher_properties =
  let pair_gen = QCheck2.Gen.pair Gen.pointcut_gen Gen.shadow_gen in
  let triple_gen =
    QCheck2.Gen.triple Gen.pointcut_gen Gen.pointcut_gen Gen.shadow_gen
  in
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"De Morgan: not (a and b) = not a or not b"
        ~count:500 triple_gen (fun (a, b, s) ->
          Weaver.Matcher.matches
            (Aspects.Pointcut.Not (Aspects.Pointcut.And (a, b)))
            s
          = Weaver.Matcher.matches
              (Aspects.Pointcut.Or
                 (Aspects.Pointcut.Not a, Aspects.Pointcut.Not b))
              s);
      QCheck2.Test.make ~name:"De Morgan: not (a or b) = not a and not b"
        ~count:500 triple_gen (fun (a, b, s) ->
          Weaver.Matcher.matches
            (Aspects.Pointcut.Not (Aspects.Pointcut.Or (a, b)))
            s
          = Weaver.Matcher.matches
              (Aspects.Pointcut.And
                 (Aspects.Pointcut.Not a, Aspects.Pointcut.Not b))
              s);
      QCheck2.Test.make ~name:"double negation is identity" ~count:500 pair_gen
        (fun (pc, s) ->
          Weaver.Matcher.matches
            (Aspects.Pointcut.Not (Aspects.Pointcut.Not pc))
            s
          = Weaver.Matcher.matches pc s);
      QCheck2.Test.make ~name:"matches and kinds are total" ~count:500 pair_gen
        (fun (pc, s) ->
          (* no pointcut x shadow pair may raise, and [kinds] must agree
             with itself under negation (the weaver's gate treats [Not p]
             exactly like [p]) *)
          let (_ : bool) = Weaver.Matcher.matches pc s in
          Weaver.Matcher.kinds (Aspects.Pointcut.Not pc)
          = Weaver.Matcher.kinds pc);
    ]

(* ---- weaving semantics ------------------------------------------------------ *)

let weave_tests =
  [
    Alcotest.test_case "before prepends to the body" `Quick (fun () ->
        let aspect =
          aspect_with
            [
              Aspects.Advice.make Aspects.Advice.Before
                (Aspects.Pointcut.execution "Service" "handle")
                [ marker "BEFORE" ];
            ]
        in
        let { Weaver.Weave.program; applications } =
          Weaver.Weave.weave_one aspect (mk_program ())
        in
        (match body_of program "Service" "handle" with
        | Code.Jstmt.S_comment "BEFORE" :: _ -> ()
        | _ -> Alcotest.fail "advice not first");
        check ci "one application" 1 (List.length applications);
        (* unmatched methods untouched *)
        check ci "other untouched" 0 (List.length (body_of program "Service" "other")));
    Alcotest.test_case "after weaves try/finally" `Quick (fun () ->
        let aspect =
          aspect_with
            [
              Aspects.Advice.make Aspects.Advice.After
                (Aspects.Pointcut.execution "Service" "handle")
                [ marker "AFTER" ];
            ]
        in
        let { Weaver.Weave.program; _ } = Weaver.Weave.weave_one aspect (mk_program ()) in
        let text = body_text program "Service" "handle" in
        check cb "finally" true (contains text "} finally {");
        check cb "marker inside" true (contains text "// AFTER"));
    Alcotest.test_case "after_returning inserts before a trailing return"
      `Quick (fun () ->
        let with_return =
          Code.Junit.update_class (mk_program ()) "Service"
            (Code.Jdecl.map_methods (fun m ->
                 if m.Code.Jdecl.method_name = "other" then
                   { m with Code.Jdecl.body = Some [ marker "WORK"; Code.Jstmt.S_return None ] }
                 else m))
        in
        let aspect =
          aspect_with
            [
              Aspects.Advice.make Aspects.Advice.After_returning
                (Aspects.Pointcut.execution "Service" "other")
                [ marker "EXIT" ];
            ]
        in
        let { Weaver.Weave.program; _ } = Weaver.Weave.weave_one aspect with_return in
        match body_of program "Service" "other" with
        | [ Code.Jstmt.S_comment "WORK"; Code.Jstmt.S_comment "EXIT"; Code.Jstmt.S_return None ] ->
            ()
        | body ->
            Alcotest.fail
              (String.concat " ; " (List.map Code.Printer.stmt_to_string body)));
    Alcotest.test_case "around splices the body at proceed()" `Quick (fun () ->
        let aspect =
          aspect_with
            [
              Aspects.Advice.make Aspects.Advice.Around
                (Aspects.Pointcut.execution "Service" "handle")
                [ marker "IN"; Aspects.Advice.proceed; marker "OUT" ];
            ]
        in
        let { Weaver.Weave.program; _ } = Weaver.Weave.weave_one aspect (mk_program ()) in
        match body_of program "Service" "handle" with
        | [ Code.Jstmt.S_comment "IN"; Code.Jstmt.S_block original; Code.Jstmt.S_comment "OUT" ] ->
            check ci "original inside" 3 (List.length original)
        | body ->
            Alcotest.fail
              (String.concat " ; " (List.map Code.Printer.stmt_to_string body)));
    Alcotest.test_case "pseudo-variables are substituted" `Quick (fun () ->
        let aspect =
          aspect_with
            [
              Aspects.Advice.make Aspects.Advice.Before
                (Aspects.Pointcut.execution "Service" "handle")
                [
                  Code.Jstmt.S_expr
                    (Code.Jexpr.E_call
                       ( Some (Code.Jexpr.E_name "Log"),
                         "log",
                         [ Code.Jexpr.E_name "thisJoinPoint"; Code.Jexpr.E_name "targetName" ] ));
                ];
            ]
        in
        let { Weaver.Weave.program; _ } = Weaver.Weave.weave_one aspect (mk_program ()) in
        let text = body_text program "Service" "handle" in
        check cb "joinpoint string" true
          (contains text "\"execution(Service.handle)\"");
        check cb "target string" true (contains text "\"Service\""));
    Alcotest.test_case "call advice wraps the containing statement" `Quick
      (fun () ->
        let aspect =
          aspect_with
            [
              Aspects.Advice.make Aspects.Advice.Before
                (Aspects.Pointcut.call "Helper" "run")
                [ marker "CALL" ];
            ]
        in
        let { Weaver.Weave.program; applications } =
          Weaver.Weave.weave_one aspect (mk_program ())
        in
        check ci "one application" 1 (List.length applications);
        check cs "shadow" "call(Helper.run)" (List.hd applications).Weaver.Weave.at;
        let text = body_text program "Service" "handle" in
        check cb "marker before the call" true (contains text "// CALL"));
    Alcotest.test_case "field-set advice fires on this.field assignment" `Quick
      (fun () ->
        let aspect =
          aspect_with
            [
              Aspects.Advice.make Aspects.Advice.After
                (Aspects.Pointcut.set_field "Service" "state")
                [ marker "SET" ];
            ]
        in
        let { Weaver.Weave.program; applications } =
          Weaver.Weave.weave_one aspect (mk_program ())
        in
        check ci "one application" 1 (List.length applications);
        let text = body_text program "Service" "handle" in
        check cb "marker after assignment" true (contains text "// SET"));
    Alcotest.test_case "inter-type members added to matching classes only"
      `Quick (fun () ->
        let aspect =
          Aspects.Aspect.make ~name:"It" ~concern:"test"
            ~intertypes:
              [
                Aspects.Aspect.It_field
                  ( "Serv*",
                    {
                      Code.Jdecl.field_name = "injected";
                      field_type = Code.Jtype.T_int;
                      field_mods = [ Code.Jdecl.M_private ];
                      field_init = None;
                    } );
                Aspects.Aspect.It_method
                  ( "Helper",
                    {
                      Code.Jdecl.method_name = "ping";
                      method_mods = [ Code.Jdecl.M_public ];
                      return_type = Code.Jtype.T_void;
                      params = [];
                      throws = [];
                      body = Some [];
                    } );
              ]
            ()
        in
        let { Weaver.Weave.program; _ } = Weaver.Weave.weave_one aspect (mk_program ()) in
        (match Code.Junit.find_class program "Service" with
        | Some c ->
            check cb "field injected" true
              (List.exists
                 (fun (f : Code.Jdecl.field) -> f.Code.Jdecl.field_name = "injected")
                 c.Code.Jdecl.fields)
        | None -> Alcotest.fail "Service missing");
        match Code.Junit.find_class program "Helper" with
        | Some c ->
            check cb "method injected" true (Code.Jdecl.find_method c "ping" <> None);
            check cb "field not injected" true (c.Code.Jdecl.fields = [])
        | None -> Alcotest.fail "Helper missing");
  ]

(* ---- precedence --------------------------------------------------------------- *)

let generated seq name advices =
  {
    Aspects.Generator.aspect = aspect_with ~name advices;
    from_transformation = "T." ^ name;
    seq;
  }

let precedence_tests =
  [
    Alcotest.test_case "order sorts by sequence number" `Quick (fun () ->
        let gs = [ generated 2 "Second" []; generated 1 "First" [] ] in
        check (Alcotest.list cs) "ordered" [ "First"; "Second" ]
          (List.map
             (fun g -> g.Aspects.Generator.aspect.Aspects.Aspect.aspect_name)
             (Weaver.Precedence.order gs)));
    Alcotest.test_case "earlier transformation's before advice runs first"
      `Quick (fun () ->
        let gs =
          [
            generated 2 "Late"
              [
                Aspects.Advice.make Aspects.Advice.Before
                  (Aspects.Pointcut.execution "Service" "handle")
                  [ marker "LATE" ];
              ];
            generated 1 "Early"
              [
                Aspects.Advice.make Aspects.Advice.Before
                  (Aspects.Pointcut.execution "Service" "handle")
                  [ marker "EARLY" ];
              ];
          ]
        in
        let { Weaver.Weave.program; _ } = Weaver.Weave.weave gs (mk_program ()) in
        match body_of program "Service" "handle" with
        | Code.Jstmt.S_comment "EARLY" :: Code.Jstmt.S_comment "LATE" :: _ -> ()
        | body ->
            Alcotest.fail
              (String.concat " ; " (List.map Code.Printer.stmt_to_string body)));
    Alcotest.test_case "earlier around advice ends up outermost" `Quick
      (fun () ->
        let around tag =
          Aspects.Advice.make Aspects.Advice.Around
            (Aspects.Pointcut.execution "Service" "other")
            [ marker (tag ^ "-IN"); Aspects.Advice.proceed; marker (tag ^ "-OUT") ]
        in
        let gs = [ generated 1 "High" [ around "HIGH" ]; generated 2 "Low" [ around "LOW" ] ] in
        let { Weaver.Weave.program; _ } = Weaver.Weave.weave gs (mk_program ()) in
        match body_of program "Service" "other" with
        | [ Code.Jstmt.S_comment "HIGH-IN"; Code.Jstmt.S_block inner; Code.Jstmt.S_comment "HIGH-OUT" ]
          ->
            let inner_text =
              String.concat "\n" (List.map Code.Printer.stmt_to_string inner)
            in
            check cb "low inside high" true (contains inner_text "// LOW-IN")
        | body ->
            Alcotest.fail
              (String.concat " ; " (List.map Code.Printer.stmt_to_string body)));
    Alcotest.test_case "weave records applications across aspects" `Quick
      (fun () ->
        let gs =
          [
            generated 1 "A"
              [
                Aspects.Advice.make Aspects.Advice.Before
                  (Aspects.Pointcut.execution "*" "*")
                  [ marker "X" ];
              ];
          ]
        in
        let { Weaver.Weave.applications; _ } = Weaver.Weave.weave gs (mk_program ()) in
        (* three bodied methods in the program *)
        check ci "three applications" 3 (List.length applications));
    Alcotest.test_case "explain lists the order" `Quick (fun () ->
        let gs = [ generated 2 "B" []; generated 1 "A" [] ] in
        let text = Weaver.Precedence.explain gs in
        check cb "A first" true (contains text "1. A (from T.A)");
        check cb "B second" true (contains text "2. B (from T.B)"));
  ]

let weave_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"weaving is deterministic" ~count:100
        Gen.pointcut_gen (fun pc ->
          let aspect =
            aspect_with
              [ Aspects.Advice.make Aspects.Advice.Before pc [ marker "X" ] ]
          in
          let r1 = Weaver.Weave.weave_one aspect (mk_program ()) in
          let r2 = Weaver.Weave.weave_one aspect (mk_program ()) in
          Code.Junit.equal r1.Weaver.Weave.program r2.Weaver.Weave.program);
      QCheck2.Test.make
        ~name:"weaving never changes the number of declared methods" ~count:100
        Gen.pointcut_gen (fun pc ->
          let aspect =
            aspect_with
              [ Aspects.Advice.make Aspects.Advice.Before pc [ marker "X" ] ]
          in
          let r = Weaver.Weave.weave_one aspect (mk_program ()) in
          Code.Junit.total_methods r.Weaver.Weave.program
          = Code.Junit.total_methods (mk_program ()));
      QCheck2.Test.make
        ~name:"woven programs still round trip through the printer" ~count:60
        Gen.pointcut_gen (fun pc ->
          let aspect =
            aspect_with
              [ Aspects.Advice.make Aspects.Advice.Before pc [ marker "X" ] ]
          in
          let r = Weaver.Weave.weave_one aspect (mk_program ()) in
          List.for_all
            (fun u ->
              match
                Jparser.parse_unit_opt (Code.Printer.program_to_string [ u ])
              with
              | Ok u' -> Code.Junit.equal [ u ] [ u' ]
              | Error _ -> false)
            r.Weaver.Weave.program);
    ]

(* ---- interference -------------------------------------------------------- *)

let interference_tests =
  let before pc = Aspects.Advice.make Aspects.Advice.Before pc [ marker "x" ] in
  let g seq name concern advices =
    {
      Aspects.Generator.aspect =
        Aspects.Aspect.make ~name ~concern ~advices ();
      from_transformation = "T." ^ name;
      seq;
    }
  in
  [
    Alcotest.test_case "shared join points are detected and ordered" `Quick
      (fun () ->
        let gs =
          [
            g 2 "B" "tx" [ before (Aspects.Pointcut.execution "Service" "handle") ];
            g 1 "A" "dist" [ before (Aspects.Pointcut.execution "Service" "*") ];
          ]
        in
        let report = Weaver.Interference.analyze gs (mk_program ()) in
        (* A advises handle+other, B advises handle only *)
        check ci "advised join points" 2 (List.length report.Weaver.Interference.entries);
        check ci "one shared" 1 (List.length report.Weaver.Interference.shared);
        let shared = List.hd report.Weaver.Interference.shared in
        check cs "where" "execution(Service.handle)"
          (Weaver.Joinpoint.describe shared.Weaver.Interference.at);
        check (Alcotest.list cs) "precedence order" [ "dist"; "tx" ]
          (List.map
             (fun (a : Weaver.Interference.advising) -> a.Weaver.Interference.concern)
             shared.Weaver.Interference.advisers));
    Alcotest.test_case "same concern twice is not cross-concern interference"
      `Quick (fun () ->
        let gs =
          [
            g 1 "A" "log" [ before (Aspects.Pointcut.execution "Service" "handle") ];
            g 2 "B" "log" [ before (Aspects.Pointcut.execution "Service" "handle") ];
          ]
        in
        let report = Weaver.Interference.analyze gs (mk_program ()) in
        check ci "no shared" 0 (List.length report.Weaver.Interference.shared));
    Alcotest.test_case "render marks shared join points" `Quick (fun () ->
        let gs =
          [
            g 1 "A" "dist" [ before (Aspects.Pointcut.execution "Service" "*") ];
            g 2 "B" "tx" [ before (Aspects.Pointcut.execution "Service" "handle") ];
          ]
        in
        let text =
          Weaver.Interference.render
            (Weaver.Interference.analyze gs (mk_program ()))
        in
        check cb "bang marker" true (contains text "[!] execution(Service.handle)");
        check cb "summary" true (contains text "1 shared across concerns"));
    Alcotest.test_case "call and field-set join points are reported" `Quick
      (fun () ->
        (* all three shadow kinds in one report: Helper.run's call site and
           the this.state assignment, both inside Service.handle *)
        let gs =
          [
            g 1 "A" "log" [ before (Aspects.Pointcut.call "Helper" "run") ];
            g 2 "B" "audit"
              [ before (Aspects.Pointcut.set_field "Service" "state") ];
          ]
        in
        let report = Weaver.Interference.analyze gs (mk_program ()) in
        let described =
          List.map
            (fun (e : Weaver.Interference.entry) ->
              Weaver.Joinpoint.describe e.Weaver.Interference.at)
            report.Weaver.Interference.entries
        in
        check (Alcotest.list cs) "both statement shadows advised"
          [ "call(Helper.run)"; "set(Service.state)" ]
          described;
        (* distinct statements, but inside the same method body: the
           conservative same-method collision rule reports the pair *)
        check cb "same-method statement advice conflicts" true
          (List.for_all
             (fun (p : Weaver.Interference.pair) ->
               match p.Weaver.Interference.verdict with
               | Weaver.Interference.Conflicting _ -> true
               | Weaver.Interference.Independent -> false)
             report.Weaver.Interference.pairs));
    Alcotest.test_case "entry.shared is per-entry, not physical identity"
      `Quick (fun () ->
        (* the old render path used [List.memq] against the shared subset,
           which silently depended on physical equality of entries; the
           flag now travels on the entry itself *)
        let gs =
          [
            g 1 "A" "dist" [ before (Aspects.Pointcut.execution "Service" "*") ];
            g 2 "B" "tx"
              [ before (Aspects.Pointcut.execution "Service" "handle") ];
          ]
        in
        let report = Weaver.Interference.analyze gs (mk_program ()) in
        let flag_of name =
          List.find_map
            (fun (e : Weaver.Interference.entry) ->
              if
                Weaver.Joinpoint.describe e.Weaver.Interference.at
                = "execution(Service." ^ name ^ ")"
              then Some e.Weaver.Interference.shared
              else None)
            report.Weaver.Interference.entries
        in
        check (Alcotest.option cb) "handle shared" (Some true)
          (flag_of "handle");
        check (Alcotest.option cb) "other not shared" (Some false)
          (flag_of "other"));
    Alcotest.test_case "overlapping wrap advice is a conflicting pair" `Quick
      (fun () ->
        let gs =
          [
            g 1 "A" "dist" [ before (Aspects.Pointcut.execution "Service" "handle") ];
            g 2 "B" "tx"
              [
                Aspects.Advice.make Aspects.Advice.Around
                  (Aspects.Pointcut.execution "Service" "handle")
                  [ marker "wrap"; Aspects.Advice.proceed ];
              ];
          ]
        in
        let report = Weaver.Interference.analyze gs (mk_program ()) in
        match report.Weaver.Interference.pairs with
        | [ { left = "A"; right = "B"; verdict = Conflicting { witness; _ } } ]
          ->
            check (Alcotest.option cs) "witness shadow"
              (Some "execution(Service.handle)")
              (Option.map Weaver.Joinpoint.describe witness)
        | _ -> Alcotest.fail "expected exactly one conflicting pair A x B");
    Alcotest.test_case "before and after-returning at one shadow commute"
      `Quick (fun () ->
        let program = mk_program () in
        let mk time name =
          Aspects.Aspect.make ~name ~concern:name
            ~advices:
              [
                Aspects.Advice.make time
                  (Aspects.Pointcut.execution "Service" "handle")
                  [ marker name ];
              ]
            ()
        in
        let a = mk Aspects.Advice.Before "A"
        and b = mk Aspects.Advice.After_returning "B" in
        let gs =
          [
            { Aspects.Generator.aspect = a; from_transformation = "T.A"; seq = 1 };
            { Aspects.Generator.aspect = b; from_transformation = "T.B"; seq = 2 };
          ]
        in
        let report = Weaver.Interference.analyze gs program in
        check cb "reported independent" true
          (List.for_all
             (fun (p : Weaver.Interference.pair) ->
               p.Weaver.Interference.verdict = Weaver.Interference.Independent)
             report.Weaver.Interference.pairs);
        (* and they really do commute *)
        let once x p = (Weaver.Weave.weave_one x p).Weaver.Weave.program in
        check cb "weaves commute" true
          (Code.Junit.equal (once a (once b program)) (once b (once a program))));
    Alcotest.test_case "render lists pair verdicts" `Quick (fun () ->
        (* one report with a provably independent pair, one with a
           conflicting pair — both renderings are locked *)
        let independent_gs =
          [
            g 1 "A" "log" [ before (Aspects.Pointcut.execution "Service" "other") ];
            g 2 "B" "audit" [ before (Aspects.Pointcut.execution "Helper" "run") ];
          ]
        in
        let text =
          Weaver.Interference.render
            (Weaver.Interference.analyze independent_gs (mk_program ()))
        in
        check cb "pair summary" true
          (contains text "aspect pairs: 1 independent, 0 conflicting");
        check cb "pair line" true (contains text "A ~ B: independent");
        let conflicting_gs =
          [
            g 1 "A" "log" [ before (Aspects.Pointcut.call "Helper" "run") ];
            g 2 "B" "audit"
              [ before (Aspects.Pointcut.set_field "Service" "state") ];
          ]
        in
        let text =
          Weaver.Interference.render
            (Weaver.Interference.analyze conflicting_gs (mk_program ()))
        in
        check cb "conflict summary" true
          (contains text "aspect pairs: 0 independent, 1 conflicting");
        check cb "conflict line marked" true (contains text "[!] A x B:"));
  ]

let () =
  Alcotest.run "weaver"
    [
      ("joinpoints", joinpoint_tests);
      ("matcher", matcher_tests @ matcher_properties);
      ("weaving", weave_tests @ weave_properties);
      ("precedence", precedence_tests);
      ("interference", interference_tests);
    ]
