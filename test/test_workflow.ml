(* Tests for the workflow layer: concern coloring, the workflow state
   machine, guidance, and the wizard parsing. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- color ---------------------------------------------------------------- *)

let diff_adding ids =
  {
    Mof.Diff.added = Mof.Id.Set.of_list (List.map Mof.Id.of_int ids);
    removed = Mof.Id.Set.empty;
    modified = Mof.Id.Set.empty;
  }

(* The legend lines of a demarcation whose trace applies [concerns] in
   order, one added element each. *)
let legend concerns =
  let trace, _ =
    List.fold_left
      (fun (t, id) concern ->
        ( Transform.Trace.record ~transformation:("T." ^ concern) ~concern
            (diff_adding [ id ]) t,
          id + 1 ))
      (Transform.Trace.empty, 1000) concerns
  in
  List.filter
    (fun line -> contains line " — ")
    (String.split_on_char '\n' (Workflow.Color.demarcate (Fixtures.banking ()) trace))

let color_tests =
  [
    Alcotest.test_case "assignment follows first-application order" `Quick
      (fun () ->
        check (Alcotest.list cs) "legend" [ "red — x"; "blue — y" ] (legend [ "x"; "y" ]));
    Alcotest.test_case "palette wraps past its length" `Quick (fun () ->
        let lines = legend (List.init 10 (fun i -> "c" ^ string_of_int i)) in
        check ci "all assigned" 10 (List.length lines);
        check cs "c0" "red — c0" (List.nth lines 0);
        check cs "wrapped" "red — c8" (List.nth lines 8));
    Alcotest.test_case "color_of resolves through the trace" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m, traced = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"Traced" in
        let m, _ = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"Plain" in
        let trace =
          Transform.Trace.record ~transformation:"T" ~concern:"dist"
            (diff_adding [ Mof.Id.to_int traced ])
            Transform.Trace.empty
        in
        let text = Workflow.Color.demarcate m trace in
        check cb "traced element" true (contains text "[red] Class Traced");
        check cb "functional element" true (contains text "\nClass Plain"));
    Alcotest.test_case "HTML demarcation escapes and colors" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m2, added =
          Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"A<B>&C"
        in
        let trace =
          Transform.Trace.record ~transformation:"T" ~concern:"dist"
            (diff_adding [ Mof.Id.to_int added ])
            Transform.Trace.empty
        in
        let html = Workflow.Color.demarcate_html m2 trace in
        let contains needle =
          let nl = String.length needle and hl = String.length html in
          let rec go i = i + nl <= hl && (String.sub html i nl = needle || go (i + 1)) in
          go 0
        in
        check cb "escaped name" true (contains "A&lt;B&gt;&amp;C");
        check cb "no raw angle name" false (contains "Class A<B>&C");
        check cb "colored row" true (contains "style=\"color:red\"");
        check cb "legend row" true (contains "<td>dist</td>");
        check cb "well-formed page" true (contains "</html>"));
    Alcotest.test_case "legend and demarcation" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m2, added = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"Proxy9" in
        let trace =
          Transform.Trace.record ~transformation:"T" ~concern:"dist"
            (diff_adding [ Mof.Id.to_int added ])
            Transform.Trace.empty
        in
        let text = Workflow.Color.demarcate m2 trace in
        check cb "colored line" true (contains text "[red] Class Proxy9");
        check cb "uncolored functional" true (contains text "\nClass Account");
        check cb "legend" true (contains text "red — dist"));
  ]

(* ---- state ------------------------------------------------------------------ *)

(* What is left of the workflow can be skipped: every step from the current
   one on is optional. *)
let only_optional_left p =
  let steps = (Workflow.State.definition p).Workflow.State.steps in
  match Workflow.State.current_step p with
  | None -> true
  | Some current ->
      let rec from = function
        | [] -> []
        | s :: rest -> if s == current then s :: rest else from rest
      in
      List.for_all (fun (s : Workflow.State.step) -> s.Workflow.State.optional) (from steps)

let state_tests =
  let wf = Workflow.State.middleware_default in
  [
    Alcotest.test_case "the default middleware sequence advances" `Quick
      (fun () ->
        let p = Workflow.State.start wf in
        let advance p concern =
          match Workflow.State.advance p ~concern with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let p = advance p "distribution" in
        let p = advance p "transactions" in
        let p = advance p "security" in
        check cb "complete after mandatory steps" true (only_optional_left p);
        check (Alcotest.list cs) "applied"
          [ "distribution"; "transactions"; "security" ]
          (List.map snd (Workflow.State.completed p));
        (* optional steps still available *)
        let p = advance p "concurrency" in
        let p = advance p "logging" in
        check cb "still complete" true (only_optional_left p));
    Alcotest.test_case "wrong order is rejected with a helpful message" `Quick
      (fun () ->
        let p = Workflow.State.start wf in
        match Workflow.State.advance p ~concern:"security" with
        | Error msg ->
            check cb "names the step" true (contains msg "distribute");
            check cb "lists the choices" true (contains msg "distribution")
        | Ok _ -> Alcotest.fail "should be rejected");
    Alcotest.test_case "optional steps can be skipped" `Quick (fun () ->
        let p = Workflow.State.start wf in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"distribution") in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"transactions") in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"security") in
        (* jump straight to logging, skipping the optional concurrency step *)
        match Workflow.State.advance p ~concern:"logging" with
        | Ok p' ->
            check cb "complete" true (only_optional_left p');
            check cb "workflow exhausted" true
              (Workflow.State.current_step p' = None)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "mandatory steps cannot be skipped" `Quick (fun () ->
        let p = Workflow.State.start wf in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"distribution") in
        check cb "security too early" true
          (Result.is_error (Workflow.State.advance p ~concern:"security")));
    Alcotest.test_case "advance after completion is rejected" `Quick (fun () ->
        let tiny = Workflow.State.workflow [ Workflow.State.step ~name:"only" [ "x" ] ] in
        let p = Workflow.State.start tiny in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"x") in
        check cb "rejected" true (Result.is_error (Workflow.State.advance p ~concern:"x")));
    Alcotest.test_case "options look through optional steps" `Quick (fun () ->
        let wf2 =
          Workflow.State.workflow
            [
              Workflow.State.step ~optional:true ~name:"opt" [ "a" ];
              Workflow.State.step ~name:"must" [ "b" ];
            ]
        in
        let p = Workflow.State.start wf2 in
        let admitted c = Result.is_ok (Workflow.State.advance p ~concern:c) in
        check (Alcotest.list cs) "both visible" [ "a"; "b" ]
          (List.filter admitted [ "a"; "b"; "c" ]);
        check cb "b allowed directly" true (admitted "b"));
    Alcotest.test_case "remaining_concerns covers the tail" `Quick (fun () ->
        let p = Workflow.State.start wf in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"distribution") in
        check (Alcotest.list cs) "rest"
          [ "transactions"; "security"; "concurrency"; "logging" ]
          (Workflow.State.remaining_concerns p));
    Alcotest.test_case "completed pairs steps with concerns" `Quick (fun () ->
        let p = Workflow.State.start wf in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"distribution") in
        check cb "pair" true
          (Workflow.State.completed p = [ ("distribute", "distribution") ]));
    Alcotest.test_case "definition is recoverable" `Quick (fun () ->
        let p = Workflow.State.start wf in
        check ci "steps" 5 (List.length (Workflow.State.definition p).Workflow.State.steps));
  ]

(* ---- derive ------------------------------------------------------------------- *)

let derive_tests =
  [
    Alcotest.test_case "topological order respects prerequisites" `Quick
      (fun () ->
        let wf =
          Result.get_ok
            (Workflow.Derive.from_dependencies
               [ ("c", [ "b" ]); ("a", []); ("b", [ "a" ]) ])
        in
        let order =
          List.concat_map (fun s -> s.Workflow.State.choices) wf.Workflow.State.steps
        in
        check (Alcotest.list cs) "a before b before c" [ "a"; "b"; "c" ] order);
    Alcotest.test_case "declaration order breaks ties" `Quick (fun () ->
        let wf =
          Result.get_ok
            (Workflow.Derive.from_dependencies [ ("x", []); ("y", []); ("z", []) ])
        in
        let order =
          List.concat_map (fun s -> s.Workflow.State.choices) wf.Workflow.State.steps
        in
        check (Alcotest.list cs) "stable" [ "x"; "y"; "z" ] order);
    Alcotest.test_case "optional concerns become optional steps" `Quick
      (fun () ->
        let wf =
          Result.get_ok
            (Workflow.Derive.from_dependencies ~optional:[ "y" ]
               [ ("x", []); ("y", []) ])
        in
        check cb "y optional" true
          (List.exists
             (fun s -> s.Workflow.State.optional && s.Workflow.State.choices = [ "y" ])
             wf.Workflow.State.steps));
    Alcotest.test_case "cycles are reported with their members" `Quick
      (fun () ->
        match Workflow.Derive.from_dependencies [ ("a", [ "b" ]); ("b", [ "a" ]) ] with
        | Error msg ->
            check cb "names members" true
              (let contains hay needle =
                 let nl = String.length needle and hl = String.length hay in
                 let rec go i =
                   i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
                 in
                 go 0
               in
               contains msg "a" && contains msg "b")
        | Ok _ -> Alcotest.fail "cycle accepted");
    Alcotest.test_case "unknown prerequisite and duplicates rejected" `Quick
      (fun () ->
        check cb "unknown" true
          (Result.is_error (Workflow.Derive.from_dependencies [ ("a", [ "ghost" ]) ]));
        check cb "duplicate" true
          (Result.is_error
             (Workflow.Derive.from_dependencies [ ("a", []); ("a", []) ])));
    Alcotest.test_case
      "middleware dependencies admit the default sequence" `Quick (fun () ->
        let wf =
          Result.get_ok
            (Workflow.Derive.from_dependencies
               ~optional:[ "concurrency"; "logging" ]
               [
                 ("distribution", []);
                 ("transactions", [ "distribution" ]);
                 ("security", [ "distribution" ]);
                 ("concurrency", []);
                 ("logging", []);
               ])
        in
        let p = Workflow.State.start wf in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"distribution") in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"transactions") in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"security") in
        check cb "complete" true (only_optional_left p));
  ]

(* ---- guidance ----------------------------------------------------------------- *)

let guidance_tests =
  [
    Alcotest.test_case "describe shows progress and remaining concerns" `Quick
      (fun () ->
        let p = Workflow.State.start Workflow.State.middleware_default in
        let p = Result.get_ok (Workflow.State.advance p ~concern:"distribution") in
        let text = Workflow.Guidance.describe p in
        check cb "done line" true (contains text "[x] distribute: distribution");
        check cb "current line" true (contains text "[ ] make-transactional");
        check cb "remaining" true (contains text "remaining concerns:"));
    Alcotest.test_case "interference_brief with no pairs is reassuring" `Quick
      (fun () ->
        let text = Workflow.Guidance.interference_brief [] in
        check cb "safe-order message" true
          (contains text "any concern order is safe"));
    Alcotest.test_case "interference_brief flags order-sensitive pairs" `Quick
      (fun () ->
        let pairs =
          [
            {
              Workflow.Guidance.pair_left = "security";
              pair_right = "logging";
              pair_conflict = None;
            };
            {
              Workflow.Guidance.pair_left = "transactions";
              pair_right = "concurrency";
              pair_conflict = Some "both advise Account.withdraw";
            };
          ]
        in
        let text = Workflow.Guidance.interference_brief pairs in
        check cb "counts pairs" true (contains text "2 pair(s)");
        check cb "counts conflicts" true (contains text "1 order-sensitive");
        check cb "independent pair marked ok" true
          (contains text "[ok] security ~ logging");
        check cb "conflicting pair flagged" true
          (contains text "[!!] transactions ~ concurrency");
        check cb "reason surfaced" true
          (contains text "both advise Account.withdraw");
        check cb "order called load-bearing" true
          (contains text "workflow order is load-bearing"));
  ]

(* ---- wizard ------------------------------------------------------------------- *)

let wizard_tests =
  let decls = Concerns.Distribution.transformation.Transform.Gmt.formals in
  let parse ptype text =
    Workflow.Wizard.parse_assignments [ Transform.Params.decl "x" ptype ] [ "x=" ^ text ]
  in
  [
    Alcotest.test_case "questions mirror the declarations" `Quick (fun () ->
        let qs = String.split_on_char '\n' (Workflow.Wizard.render_questions decls) in
        check ci "three" 3 (List.length qs);
        let q = List.hd qs in
        check cb "name and type" true (String.starts_with ~prefix:"  remote : list(ident) — " q);
        check cb "required" true (String.ends_with ~suffix:"(required)" q));
    Alcotest.test_case "render_questions mentions defaults" `Quick (fun () ->
        let text = Workflow.Wizard.render_questions decls in
        check cb "required marker" true (contains text "(required)");
        check cb "default marker" true (contains text "(default \"rmi\")"));
    Alcotest.test_case "parse_value per type" `Quick (fun () ->
        let ok = Result.is_ok and err = Result.is_error in
        check cb "int" true (ok (parse Transform.Params.P_int "42"));
        check cb "bad int" true (err (parse Transform.Params.P_int "x"));
        check cb "bool" true (ok (parse Transform.Params.P_bool "true"));
        check cb "bad bool" true (err (parse Transform.Params.P_bool "yes"));
        check cb "enum" true
          (ok (parse (Transform.Params.P_enum [ "a"; "b" ]) "a"));
        check cb "bad enum" true
          (err (parse (Transform.Params.P_enum [ "a"; "b" ]) "c"));
        match
          parse (Transform.Params.P_list Transform.Params.P_ident) "A, B , C"
        with
        | Ok [ (_, Transform.Params.V_list vs) ] -> check ci "three items" 3 (List.length vs)
        | _ -> Alcotest.fail "list parse failed");
    Alcotest.test_case "parse_assignment uses the declared type" `Quick
      (fun () ->
        (match Workflow.Wizard.parse_assignments decls [ "remote=Account,Teller" ] with
        | Ok [ ("remote", Transform.Params.V_list vs) ] ->
            check ci "two" 2 (List.length vs)
        | _ -> Alcotest.fail "assignment failed");
        check cb "unknown param" true
          (Result.is_error (Workflow.Wizard.parse_assignments decls [ "nope=1" ]));
        check cb "missing equals" true
          (Result.is_error (Workflow.Wizard.parse_assignments decls [ "remote" ])));
    Alcotest.test_case "parse_assignments is all-or-nothing" `Quick (fun () ->
        check cb "good" true
          (Result.is_ok
             (Workflow.Wizard.parse_assignments decls
                [ "remote=A"; "protocol=ws" ]));
        check cb "one bad poisons all" true
          (Result.is_error
             (Workflow.Wizard.parse_assignments decls
                [ "remote=A"; "protocol=smoke-signals" ])));
  ]

let () =
  Alcotest.run "workflow"
    [
      ("color", color_tests);
      ("state", state_tests);
      ("derive", derive_tests);
      ("guidance", guidance_tests);
      ("wizard", wizard_tests);
    ]
