(* Tests for the aspect model: patterns, pointcuts, advice, aspects, generic
   aspects, the generator, and the printer. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- patterns ------------------------------------------------------------ *)

let pattern_tests =
  [
    Alcotest.test_case "literal patterns match exactly" `Quick (fun () ->
        check cb "same" true (Aspects.Pattern.matches "Account" "Account");
        check cb "different" false (Aspects.Pattern.matches "Account" "Account2");
        check cb "prefix" false (Aspects.Pattern.matches "Acc" "Account"));
    Alcotest.test_case "star positions" `Quick (fun () ->
        check cb "suffix star" true (Aspects.Pattern.matches "Account*" "AccountProxy");
        check cb "prefix star" true (Aspects.Pattern.matches "*Proxy" "AccountProxy");
        check cb "middle star" true (Aspects.Pattern.matches "A*y" "AccountProxy");
        check cb "both stars" true (Aspects.Pattern.matches "*count*" "AccountProxy");
        check cb "bare star" true (Aspects.Pattern.matches "*" "anything");
        check cb "star matches empty" true (Aspects.Pattern.matches "Account*" "Account"));
    Alcotest.test_case "multiple stars" `Quick (fun () ->
        check cb "a*b*c" true (Aspects.Pattern.matches "a*b*c" "aXXbYYc");
        check cb "a*b*c strict" false (Aspects.Pattern.matches "a*b*c" "aXXcYYb"));
    Alcotest.test_case "empty cases" `Quick (fun () ->
        check cb "empty/empty" true (Aspects.Pattern.matches "" "");
        check cb "empty pattern" false (Aspects.Pattern.matches "" "x");
        check cb "star/empty" true (Aspects.Pattern.matches "*" ""));
    Alcotest.test_case "method patterns" `Quick (fun () ->
        let mp = Aspects.Pattern.method_pattern "Account" "set*" in
        check cb "match" true
          (Aspects.Pattern.matches_method mp ~class_name:"Account"
             ~method_name:"setBalance");
        check cb "class mismatch" false
          (Aspects.Pattern.matches_method mp ~class_name:"Teller"
             ~method_name:"setBalance");
        check cs "rendering" "Account.set*"
          (Aspects.Pattern.method_pattern_to_string mp));
    Alcotest.test_case "is_wildcard" `Quick (fun () ->
        check cb "yes" true (Aspects.Pattern.is_wildcard "a*");
        check cb "no" false (Aspects.Pattern.is_wildcard "ab"));
  ]

let pattern_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"star matches everything" ~count:100
        Gen.pattern_and_name_gen (fun (_, name) ->
          Aspects.Pattern.matches "*" name);
      QCheck2.Test.make ~name:"a literal matches itself" ~count:100
        Gen.pattern_and_name_gen (fun (_, name) ->
          Aspects.Pattern.matches name name);
      QCheck2.Test.make ~name:"pattern*: prefix extension still matches"
        ~count:100 Gen.pattern_and_name_gen (fun (_, name) ->
          Aspects.Pattern.matches (name ^ "*") (name ^ "suffix"));
    ]

(* ---- pointcuts ------------------------------------------------------------ *)

let pointcut_tests =
  [
    Alcotest.test_case "rendering" `Quick (fun () ->
        let open Aspects.Pointcut in
        check cs "execution" "execution(Account.set*)"
          (to_string (execution "Account" "set*"));
        check cs "combined"
          "(execution(A.*) && !within(B))"
          (to_string (execution "A" "*" &&& not_ (within "B")));
        check cs "or" "(call(A.f) || set(A.x))"
          (to_string (call "A" "f" ||| set_field "A" "x")));
    Alcotest.test_case "execution_patterns collects positively" `Quick
      (fun () ->
        let open Aspects.Pointcut in
        let pc = execution "A" "f" &&& (execution "B" "g" ||| within "C") in
        check ci "two" 2 (List.length (execution_patterns pc));
        check ci "not under negation" 0
          (List.length (execution_patterns (not_ (execution "A" "f")))));
  ]

(* ---- pointcut parser ------------------------------------------------------- *)

let pointcut_parser_tests =
  let parse_ok src =
    match Aspects.Pointcut_parser.parse src with
    | Ok pc -> pc
    | Error e -> Alcotest.fail e
  in
  [
    Alcotest.test_case "primitives" `Quick (fun () ->
        check cb "execution" true
          (parse_ok "execution(Account.set*)"
          = Aspects.Pointcut.execution "Account" "set*");
        check cb "call" true
          (parse_ok "call(Helper.run)" = Aspects.Pointcut.call "Helper" "run");
        check cb "set" true
          (parse_ok "set(C.f)" = Aspects.Pointcut.set_field "C" "f");
        check cb "within" true
          (parse_ok "within(*Proxy)" = Aspects.Pointcut.within "*Proxy"));
    Alcotest.test_case "combinators and precedence" `Quick (fun () ->
        let open Aspects.Pointcut in
        check cb "and binds tighter than or" true
          (parse_ok "within(A) || within(B) && within(C)"
          = (within "A" ||| (within "B" &&& within "C")));
        check cb "negation" true
          (parse_ok "!within(A) && execution(B.*)"
          = (not_ (within "A") &&& execution "B" "*"));
        check cb "parentheses" true
          (parse_ok "(within(A) || within(B)) && within(C)"
          = ((within "A" ||| within "B") &&& within "C")));
    Alcotest.test_case "round trip through to_string" `Quick (fun () ->
        let open Aspects.Pointcut in
        let rec or_chain n =
          if n = 0 then within "X" else within (Printf.sprintf "C%d" n) ||| or_chain (n - 1)
        in
        let rec nots n = if n = 0 then within "X" else not_ (nots (n - 1)) in
        List.iter
          (fun pc ->
            check cb (to_string pc) true (parse_ok (to_string pc) = pc))
          [
            execution "Account" "set*";
            call "A" "f" &&& not_ (within "B");
            set_field "C" "f" ||| (execution "D" "*" &&& within "E*");
            not_ (not_ (within "X"));
            or_chain 100;
            or_chain 128;
            nots 100;
            nots Aspects.Pointcut_parser.max_depth;
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random pointcuts round trip" ~count:200
         Gen.pointcut_gen (fun pc ->
           match Aspects.Pointcut_parser.parse (Aspects.Pointcut.to_string pc) with
           | Ok pc' -> pc' = pc
           | Error _ -> false));
    Alcotest.test_case "errors are reported, not raised" `Quick (fun () ->
        let deep = 1_000_000 in
        List.iter
          (fun (name, src) ->
            let start = Unix.gettimeofday () in
            let refused = Result.is_error (Aspects.Pointcut_parser.parse src) in
            let ms = 1000. *. (Unix.gettimeofday () -. start) in
            check cb name true refused;
            if ms >= 10. then Alcotest.failf "%s: refused after %.1f ms" name ms)
          (List.map
             (fun src -> (src, src))
             [
               "";
               "execution(Account)";
               "frobnicate(A.b)";
               "within(A) &&";
               "within(A) extra";
               "(within(A)";
             ]
          @ [
              ( "257 negations",
                String.make (Aspects.Pointcut_parser.max_depth + 1) '!' ^ "within(A)" );
              ( "1M nested parentheses",
                String.make deep '(' ^ "within(A)" ^ String.make deep ')' );
              ("1M negations", String.make deep '!' ^ "within(A)");
              ("1M unclosed parentheses", String.make deep '(');
            ]));
  ]

(* ---- advice ---------------------------------------------------------------- *)

let advice_tests =
  [
    Alcotest.test_case "proceed detection, direct and nested" `Quick (fun () ->
        let direct =
          Aspects.Advice.make Aspects.Advice.Around
            (Aspects.Pointcut.execution "A" "*")
            [ Aspects.Advice.proceed ]
        in
        check cb "direct" true (Aspects.Advice.mentions_proceed direct);
        let nested =
          Aspects.Advice.make Aspects.Advice.Around
            (Aspects.Pointcut.execution "A" "*")
            [
              Code.Jstmt.S_try
                ( [ Code.Jstmt.S_if (Code.Jexpr.E_bool true, [ Aspects.Advice.proceed ], []) ],
                  [],
                  [] );
            ]
        in
        check cb "nested" true (Aspects.Advice.mentions_proceed nested);
        let without =
          Aspects.Advice.make Aspects.Advice.Before
            (Aspects.Pointcut.execution "A" "*")
            [ Code.Jstmt.S_comment "nothing" ]
        in
        check cb "absent" false (Aspects.Advice.mentions_proceed without));
    Alcotest.test_case "default names are informative" `Quick (fun () ->
        let a =
          Aspects.Advice.make Aspects.Advice.Before
            (Aspects.Pointcut.execution "A" "f")
            []
        in
        check cs "name" "before: execution(A.f)" a.Aspects.Advice.advice_name);
  ]

(* ---- aspect validation ------------------------------------------------------ *)

let aspect_tests =
  [
    Alcotest.test_case "around without proceed flagged" `Quick (fun () ->
        let aspect =
          Aspects.Aspect.make ~name:"Bad" ~concern:"c"
            ~advices:
              [
                Aspects.Advice.make Aspects.Advice.Around
                  (Aspects.Pointcut.execution "A" "*")
                  [ Code.Jstmt.S_comment "no proceed" ];
              ]
            ()
        in
        check cb "flagged" true (Aspects.Aspect.validate aspect <> []));
    Alcotest.test_case "before with proceed flagged" `Quick (fun () ->
        let aspect =
          Aspects.Aspect.make ~name:"Bad" ~concern:"c"
            ~advices:
              [
                Aspects.Advice.make Aspects.Advice.Before
                  (Aspects.Pointcut.execution "A" "*")
                  [ Aspects.Advice.proceed ];
              ]
            ()
        in
        check cb "flagged" true (Aspects.Aspect.validate aspect <> []));
    Alcotest.test_case "duplicate inter-type fields flagged" `Quick (fun () ->
        let field =
          {
            Code.Jdecl.field_name = "x";
            field_type = Code.Jtype.T_int;
            field_mods = [];
            field_init = None;
          }
        in
        let aspect =
          Aspects.Aspect.make ~name:"Bad" ~concern:"c"
            ~intertypes:
              [ Aspects.Aspect.It_field ("A", field); Aspects.Aspect.It_field ("A", field) ]
            ()
        in
        check cb "flagged" true (Aspects.Aspect.validate aspect <> []));
    Alcotest.test_case "clean aspect validates" `Quick (fun () ->
        let aspect =
          Aspects.Aspect.make ~name:"Good" ~concern:"c"
            ~advices:
              [
                Aspects.Advice.make Aspects.Advice.Around
                  (Aspects.Pointcut.execution "A" "*")
                  [ Aspects.Advice.proceed ];
              ]
            ()
        in
        check (Alcotest.list cs) "no diags" [] (Aspects.Aspect.validate aspect));
  ]

(* ---- generic aspects + generator --------------------------------------------- *)

let counting_gac =
  Aspects.Generic.make ~name:"A.count" ~concern:"counting"
    ~formals:
      [ Transform.Params.decl "targets" (Transform.Params.P_list Transform.Params.P_ident) ]
    (fun set ->
      let targets = Transform.Params.get_names set "targets" in
      Aspects.Aspect.make ~name:"Counting" ~concern:"counting"
        ~advices:
          (List.map
             (fun t ->
               Aspects.Advice.make Aspects.Advice.Before
                 (Aspects.Pointcut.execution t "*")
                 [])
             targets)
        ())

let counting_gmt =
  Transform.Gmt.make ~name:"T.count" ~concern:"counting"
    ~formals:
      [ Transform.Params.decl "targets" (Transform.Params.P_list Transform.Params.P_ident) ]
    (fun _ m -> m)

let generic_tests =
  [
    Alcotest.test_case "specialize validates assignments" `Quick (fun () ->
        check cb "missing rejected" true
          (Result.is_error (Aspects.Generic.specialize counting_gac []));
        match
          Aspects.Generic.specialize counting_gac
            [
              ( "targets",
                Transform.Params.V_list
                  [ Transform.Params.V_ident "A"; Transform.Params.V_ident "B" ] );
            ]
        with
        | Ok aspect -> check ci "two advices" 2 (Aspects.Aspect.advice_count aspect)
        | Error _ -> Alcotest.fail "should specialize");
    Alcotest.test_case "from_cmt reuses the transformation's parameter set"
      `Quick (fun () ->
        let cmt =
          Transform.Cmt.specialize_exn counting_gmt
            [ ("targets", Transform.Params.V_list [ Transform.Params.V_ident "X" ]) ]
        in
        let g = Aspects.Generator.from_cmt counting_gac ~seq:3 cmt in
        check ci "seq stamped" 3 g.Aspects.Generator.seq;
        check ci "one advice" 1
          (Aspects.Aspect.advice_count g.Aspects.Generator.aspect);
        check cs "provenance" "T.count<[X]>" g.Aspects.Generator.from_transformation);
    Alcotest.test_case "from_cmt rejects concern mismatches" `Quick (fun () ->
        let other_gmt =
          Transform.Gmt.make ~name:"T.other" ~concern:"other" ~formals:[]
            (fun _ m -> m)
        in
        let cmt = Transform.Cmt.specialize_exn other_gmt [] in
        check cb "raises" true
          (try
             ignore (Aspects.Generator.from_cmt counting_gac ~seq:1 cmt);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "from_trace resolves through the lookup" `Quick (fun () ->
        let cmt =
          Transform.Cmt.specialize_exn counting_gmt
            [ ("targets", Transform.Params.V_list [ Transform.Params.V_ident "X" ]) ]
        in
        let lookup = function "counting" -> Some counting_gac | _ -> None in
        (match Aspects.Generator.from_trace ~lookup [ cmt; cmt ] with
        | Ok gs ->
            check (Alcotest.list ci) "seqs" [ 1; 2 ]
              (List.map (fun g -> g.Aspects.Generator.seq) gs)
        | Error e -> Alcotest.fail e);
        match Aspects.Generator.from_trace ~lookup:(fun _ -> None) [ cmt ] with
        | Error msg -> check cb "mentions concern" true (contains msg "counting")
        | Ok _ -> Alcotest.fail "expected missing-aspect error");
  ]

(* ---- printer ------------------------------------------------------------------ *)

let printer_tests =
  [
    Alcotest.test_case "full aspect rendering" `Quick (fun () ->
        let aspect =
          Aspects.Aspect.make ~name:"Demo" ~concern:"demo"
            ~intertypes:
              [
                Aspects.Aspect.It_field
                  ( "Account",
                    {
                      Code.Jdecl.field_name = "marker";
                      field_type = Code.Jtype.T_string;
                      field_mods = [ Code.Jdecl.M_private ];
                      field_init = None;
                    } );
              ]
            ~advices:
              [
                Aspects.Advice.make Aspects.Advice.Before
                  (Aspects.Pointcut.execution "Account" "*")
                  [ Code.Jstmt.S_comment "hello" ];
              ]
            ()
        in
        let text = Aspects.Printer.to_string aspect in
        List.iter
          (fun needle -> check cb needle true (contains text needle))
          [
            "public aspect Demo {";
            "// concern: demo";
            "private String Account.marker;";
            "before() : execution(Account.*) {";
            "// hello";
          ]);
    Alcotest.test_case "around advice renders with Object around()" `Quick
      (fun () ->
        let a =
          Aspects.Advice.make Aspects.Advice.Around
            (Aspects.Pointcut.execution "A" "*")
            [ Aspects.Advice.proceed ]
        in
        check cb "header" true
          (contains (Aspects.Printer.advice_to_string a) "Object around() :"));
    Alcotest.test_case "inter-type methods render with the target pattern"
      `Quick (fun () ->
        let aspect =
          Aspects.Aspect.make ~name:"It" ~concern:"c"
            ~intertypes:
              [
                Aspects.Aspect.It_method
                  ( "Account*",
                    {
                      Code.Jdecl.method_name = "ping";
                      method_mods = [ Code.Jdecl.M_public ];
                      return_type = Code.Jtype.T_boolean;
                      params = [];
                      throws = [];
                      body = Some [ Code.Jstmt.S_return (Some (Code.Jexpr.E_bool true)) ];
                    } );
              ]
            ()
        in
        let text = Aspects.Printer.to_string aspect in
        check cb "pattern-qualified signature" true
          (contains text "public boolean Account*.ping()"));
    Alcotest.test_case "generated header records provenance" `Quick (fun () ->
        let cmt =
          Transform.Cmt.specialize_exn counting_gmt
            [ ("targets", Transform.Params.V_list [ Transform.Params.V_ident "X" ]) ]
        in
        let g = Aspects.Generator.from_cmt counting_gac ~seq:2 cmt in
        let text = Aspects.Printer.generated_to_string g in
        check cb "from" true (contains text "generated from T.count<[X]>");
        check cb "precedence" true (contains text "(precedence 2)"));
  ]

let () =
  Alcotest.run "aspects"
    [
      ("patterns", pattern_tests @ pattern_properties);
      ("pointcuts", pointcut_tests);
      ("pointcut-parser", pointcut_parser_tests);
      ("advice", advice_tests);
      ("aspect", aspect_tests);
      ("generic", generic_tests);
      ("printer", printer_tests);
    ]
