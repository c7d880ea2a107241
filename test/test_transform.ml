(* Tests for the generic-transformation framework: parameters, traces,
   GMT/CMT specialization, and the checked engine. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

open Transform

(* ---- params ------------------------------------------------------------ *)

let sample_decls =
  [
    Params.decl "names" (Params.P_list Params.P_ident) ~doc:"class names";
    Params.decl "mode"
      (Params.P_enum [ "fast"; "safe" ])
      ~default:(Params.V_string "safe");
    Params.decl "limit" Params.P_int ~required:false;
    Params.decl "verbose" Params.P_bool ~default:(Params.V_bool false);
  ]

let sample_env assignments =
  let gmt =
    Gmt.make ~name:"T.sample" ~concern:"testing" ~formals:sample_decls
      (fun _ m -> m)
  in
  Cmt.env (Cmt.specialize_exn gmt assignments)

let build_ok assignments =
  match Params.build sample_decls assignments with
  | Ok set -> set
  | Error problems ->
      Alcotest.fail
        (Format.asprintf "%a"
           (Format.pp_print_list Params.pp_problem)
           problems)

let params_tests =
  [
    Alcotest.test_case "defaults are filled in" `Quick (fun () ->
        let set = build_ok [ ("names", Params.V_list [ Params.V_ident "A" ]) ] in
        check cs "mode default" "safe" (Params.get_string set "mode");
        let bound name = List.assoc_opt name (Params.bindings set) in
        check cb "verbose default" true (bound "verbose" = Some (Params.V_bool false));
        check cb "limit absent" true (bound "limit" = None));
    Alcotest.test_case "missing required parameter reported" `Quick (fun () ->
        match Params.build sample_decls [] with
        | Error problems ->
            check cb "missing names" true
              (List.exists (fun p -> p = Params.Missing "names") problems)
        | Ok _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "unknown parameter reported" `Quick (fun () ->
        match
          Params.build sample_decls
            [
              ("names", Params.V_list []);
              ("wat", Params.V_int 1);
            ]
        with
        | Error problems ->
            check cb "unknown" true
              (List.exists (fun p -> p = Params.Unknown "wat") problems)
        | Ok _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "type mismatch reported" `Quick (fun () ->
        match Params.build sample_decls [ ("names", Params.V_int 3) ] with
        | Error problems ->
            check cb "mismatch" true
              (List.exists
                 (function Params.Type_mismatch ("names", _, _) -> true | _ -> false)
                 problems)
        | Ok _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "enum accepts only its cases" `Quick (fun () ->
        check cb "fast ok" true
          (Params.build sample_decls
             [ ("names", Params.V_list []); ("mode", Params.V_string "fast") ]
          |> Result.is_ok);
        check cb "other rejected" true
          (Params.build sample_decls
             [ ("names", Params.V_list []); ("mode", Params.V_string "other") ]
          |> Result.is_error));
    Alcotest.test_case "ident and string interchange" `Quick (fun () ->
        let accepts ptype v = Result.is_ok (Params.build [ Params.decl "x" ptype ] [ ("x", v) ]) in
        check cb "string for ident" true (accepts Params.P_ident (Params.V_string "A"));
        check cb "ident for string" true (accepts Params.P_string (Params.V_ident "A")));
    Alcotest.test_case "get_names flattens" `Quick (fun () ->
        let set =
          build_ok
            [
              ( "names",
                Params.V_list [ Params.V_ident "A"; Params.V_string "B" ] );
            ]
        in
        check (Alcotest.list cs) "names" [ "A"; "B" ] (Params.get_names set "names"));
    Alcotest.test_case "getter type errors" `Quick (fun () ->
        let set = build_ok [ ("names", Params.V_list []) ] in
        check cb "get_int on bool" true
          (try
             ignore (Params.get_int set "verbose");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "ocl literals" `Quick (fun () ->
        (* each value is bound as the OCL value these literals denote *)
        let names = Params.V_list [ Params.V_ident "b"; Params.V_ident "a" ] in
        let env =
          sample_env
            [
              ("names", names);
              ("limit", Params.V_int 3);
              ("mode", Params.V_string "fast");
              ("verbose", Params.V_bool true);
            ]
        in
        let bound name =
          Option.map Ocl.Value.to_string (Ocl.Env.lookup name env)
        in
        let co = Alcotest.option cs in
        check co "list" (Some "Set{'a', 'b'}") (bound "$names$");
        check co "int" (Some "3") (bound "$limit$");
        check co "enum" (Some "'fast'") (bound "$mode$");
        check co "bool" (Some "true") (bound "$verbose$");
        check co "only as $name$" None (bound "names"));
    Alcotest.test_case "substitution covers every assigned name" `Quick
      (fun () ->
        let set = build_ok [ ("names", Params.V_list [ Params.V_ident "A" ]) ] in
        let env =
          sample_env [ ("names", Params.V_list [ Params.V_ident "A" ]) ]
        in
        List.iter
          (fun name ->
            check cb name true (Ocl.Env.lookup (Gmt.variable name) env <> None))
          (List.map fst (Params.bindings set)));
    Alcotest.test_case "ptype rendering" `Quick (fun () ->
        check cs "enum" "enum(fast|safe)"
          (Params.ptype_to_string (Params.P_enum [ "fast"; "safe" ]));
        check cs "list" "list(ident)"
          (Params.ptype_to_string (Params.P_list Params.P_ident)));
  ]

(* ---- trace -------------------------------------------------------------- *)

let diff_with ~added ~modified =
  {
    Mof.Diff.added = Mof.Id.Set.of_list (List.map Mof.Id.of_int added);
    removed = Mof.Id.Set.empty;
    modified = Mof.Id.Set.of_list (List.map Mof.Id.of_int modified);
  }

let trace_length (t : Trace.t) = List.length (t :> Trace.entry list)
let step concern diff = Fixtures.trace_step ~concern diff

let trace_tests =
  [
    Alcotest.test_case "concern_space unions adds and mods" `Quick (fun () ->
        let t =
          Trace.record
            (step "a" (diff_with ~added:[ 1; 2 ] ~modified:[ 3 ]))
            Trace.empty
        in
        let t =
          Trace.record
            (step "a" (diff_with ~added:[ 4 ] ~modified:[]))
            t
        in
        check ci "four ids" 4 (Mof.Id.Set.cardinal (Trace.concern_space t ~concern:"a"));
        check ci "other empty" 0
          (Mof.Id.Set.cardinal (Trace.concern_space t ~concern:"b")));
    Alcotest.test_case "concerns_applied preserves first-seen order" `Quick
      (fun () ->
        let t = Trace.empty in
        let t = Trace.record (step "b" Mof.Diff.empty) t in
        let t = Trace.record (step "a" Mof.Diff.empty) t in
        let t = Trace.record (step "b" Mof.Diff.empty) t in
        check (Alcotest.list cs) "order" [ "b"; "a" ] (Trace.concerns_applied t));
    Alcotest.test_case "introduced_by is the creating concern" `Quick (fun () ->
        let t =
          Trace.record
            (step "a" (diff_with ~added:[ 7 ] ~modified:[]))
            Trace.empty
        in
        let t =
          Trace.record
            (step "b" (diff_with ~added:[] ~modified:[ 7 ]))
            t
        in
        check cb "creator wins" true
          (Trace.introduced_by t (Mof.Id.of_int 7) = Some "a");
        check cb "untraced" true (Trace.introduced_by t (Mof.Id.of_int 99) = None));
    Alcotest.test_case "drop_last" `Quick (fun () ->
        let t = Trace.record (step "a" Mof.Diff.empty) Trace.empty in
        check ci "emptied" 0 (trace_length (Trace.drop_last t));
        let t = Trace.record (step "b" Mof.Diff.empty) t in
        check (Alcotest.list cs) "the last one goes" [ "a" ]
          (Trace.concerns_applied (Trace.drop_last t));
        check ci "empty stays empty" 0 (trace_length (Trace.drop_last Trace.empty)));
  ]

(* ---- gmt / cmt ----------------------------------------------------------- *)

(* A small honest transformation: add a class per configured name. *)
let adder_gmt =
  Gmt.make ~name:"T.adder" ~concern:"testing"
    ~formals:[ Params.decl "names" (Params.P_list Params.P_ident) ]
    ~preconditions:
      [
        Ocl.Constraint_.make ~name:"fresh"
          "$names$->forAll(n | not Class.allInstances()->exists(c | c.name = n))";
      ]
    ~postconditions:
      [
        Ocl.Constraint_.make ~name:"present"
          "$names$->forAll(n | Class.allInstances()->exists(c | c.name = n))";
      ]
    (fun set m ->
      List.fold_left
        (fun m name ->
          fst (Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name))
        m (Params.get_names set "names"))

let adder names =
  Cmt.specialize_exn adder_gmt
    [ ("names", Params.V_list (List.map (fun n -> Params.V_ident n) names)) ]

(* A broken transformation: leaves a dangling reference behind. *)
let breaker_gmt =
  Gmt.make ~name:"T.breaker" ~concern:"testing" ~formals:[] (fun _set m ->
      let m, cls = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"B" in
      let m, _ =
        Mof.Builder.add_attribute m ~cls ~name:"bad"
          ~typ:(Mof.Kind.Dt_ref (Mof.Id.of_int 9999))
      in
      m)

let failer_gmt =
  Gmt.make ~name:"T.failer" ~concern:"testing" ~formals:[] (fun _set _m ->
      Gmt.rewrite_error "nothing to do for %s" "failer")

let gmt_tests =
  [
    Alcotest.test_case "validate_conditions accepts the adder" `Quick (fun () ->
        check (Alcotest.list cs) "no diags" [] (Gmt.validate_conditions adder_gmt));
    Alcotest.test_case "validate_conditions flags undeclared parameters"
      `Quick (fun () ->
        let bad =
          Gmt.make ~name:"T.bad" ~concern:"testing" ~formals:[]
            ~preconditions:[ Ocl.Constraint_.make ~name:"oops" "$nothere$ = 1" ]
            (fun _ m -> m)
        in
        match Gmt.validate_conditions bad with
        | [ diag ] -> check cb diag true (contains diag "$nothere$")
        | diags -> Alcotest.failf "%d diagnostics" (List.length diags));
    Alcotest.test_case "validate_conditions flags unparsable conditions" `Quick
      (fun () ->
        let bad =
          Gmt.make ~name:"T.bad" ~concern:"testing" ~formals:[]
            ~preconditions:[ Ocl.Constraint_.make ~name:"oops" "1 +" ]
            (fun _ m -> m)
        in
        check cb "diagnosed" true (Gmt.validate_conditions bad <> []));
    Alcotest.test_case "validate_conditions flags type errors" `Quick (fun () ->
        let bad =
          Gmt.make ~name:"T.bad" ~concern:"testing" ~formals:[]
            ~preconditions:
              [
                Ocl.Constraint_.make ~name:"oops"
                  "Class.allInstances()->forAll(c | c.nosuch = 1)";
              ]
            (fun _ m -> m)
        in
        check cb "diagnosed" true (Gmt.validate_conditions bad <> []));
    Alcotest.test_case "specialization validates parameters" `Quick (fun () ->
        check cb "missing rejected" true
          (Result.is_error (Cmt.specialize adder_gmt []));
        check cb "ok accepted" true
          (Result.is_ok
             (Cmt.specialize adder_gmt
                [ ("names", Params.V_list [ Params.V_ident "X" ]) ])));
    Alcotest.test_case "concrete name mirrors the paper's T<p> notation" `Quick
      (fun () ->
        check cs "name" "T.adder<[X, Y]>" (Cmt.name (adder [ "X"; "Y" ])));
    Alcotest.test_case "specialized conditions have no holes" `Quick (fun () ->
        (* the specialization's env binds every [$param$] they name *)
        let cmt = adder [ "X" ] in
        List.iter
          (fun (c : Ocl.Constraint_.t) ->
            match
              Ocl.Constraint_.check ~env:(Cmt.env cmt) (Fixtures.banking ()) c
            with
            | Ocl.Constraint_.Ill_formed msg -> Alcotest.fail msg
            | _ -> ())
          (adder_gmt.Gmt.preconditions @ adder_gmt.Gmt.postconditions));
    Alcotest.test_case "parameters are typed from their declarations" `Quick
      (fun () ->
        (* (declared formals, body, whether it validates), in the style of
           a type-inference table: each row goes through
           Gmt.validate_conditions on a GMT with those formals *)
        let table =
          [
            ([ ("n", Params.P_int) ], "$n$ + 1", true);
            ([ ("n", Params.P_string) ], "$n$ + 1", false);
            ([ ("names", Params.P_list Params.P_ident) ], "$names$->includes('A')", true);
            ([ ("e", Params.P_enum [ "a"; "b" ]) ], "$e$ = 'a'", true);
            ([ ("b", Params.P_int) ], "$b$ and true", false);
            ([], "$x$ = 1", false);
          ]
        in
        let diagnostics formals body =
          Gmt.validate_conditions
            (Gmt.make ~name:"T.typed" ~concern:"testing"
               ~formals:(List.map (fun (n, t) -> Params.decl n t) formals)
               ~preconditions:[ Ocl.Constraint_.make ~name:"row" body ]
               (fun _ m -> m))
        in
        List.iter
          (fun (formals, body, validates) ->
            check cb (body ^ " validates") validates (diagnostics formals body = []))
          table;
        check cb "the undeclared parameter is named" true
          (List.exists (fun d -> contains d "$x$") (diagnostics [] "$x$ = 1")));
  ]

(* ---- compose -------------------------------------------------------------- *)

(* a second small GMT sharing the "names" parameter with the adder: it
   stereotypes the classes the adder created *)
let marker_gmt =
  Gmt.make ~name:"T.marker" ~concern:"testing"
    ~formals:[ Params.decl "names" (Params.P_list Params.P_ident) ]
    ~preconditions:
      [
        Ocl.Constraint_.make ~name:"targets-exist"
          "$names$->forAll(n | Class.allInstances()->exists(c | c.name = n))";
      ]
    ~postconditions:
      [
        Ocl.Constraint_.make ~name:"marked"
          "Class.allInstances()->forAll(c | $names$->includes(c.name) implies \
           c.hasStereotype('marked'))";
      ]
    (fun set m ->
      List.fold_left
        (fun m name ->
          match Mof.Query.find_class m name with
          | Some cls -> Mof.Builder.add_stereotype m cls.Mof.Element.id "marked"
          | None -> Gmt.rewrite_error "class %s missing" name)
        m (Params.get_names set "names"))

let compose_tests =
  [
    Alcotest.test_case "sequential composition applies both members" `Quick
      (fun () ->
        let composite =
          match
            Compose.sequence ~name:"T.add-and-mark" ~concern:"testing"
              [ adder_gmt; marker_gmt ]
          with
          | Ok gmt -> gmt
          | Error e -> Alcotest.fail e
        in
        (* "names" is shared: one merged formal *)
        check ci "merged formals" 1 (List.length composite.Gmt.formals);
        let cmt =
          Cmt.specialize_exn composite
            [ ("names", Params.V_list [ Params.V_ident "Fresh" ]) ]
        in
        match Engine.apply cmt (Fixtures.banking ()) with
        | Ok outcome ->
            let m = outcome.Engine.model in
            check cb "class added" true (Mof.Query.find_class m "Fresh" <> None);
            check cb "and marked" true
              (match Mof.Query.find_class m "Fresh" with
              | Some c -> Mof.Element.has_stereotype "marked" c
              | None -> false)
        | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f));
    Alcotest.test_case
      "intermediate condition violations abort as rewrite failures" `Quick
      (fun () ->
        (* marker first: its precondition needs the class the adder would
           only create later *)
        let composite =
          Result.get_ok
            (Compose.sequence ~name:"T.mark-then-add" ~concern:"testing"
               [ marker_gmt; adder_gmt ])
        in
        let cmt =
          Cmt.specialize_exn composite
            [ ("names", Params.V_list [ Params.V_ident "Fresh" ]) ]
        in
        match Engine.apply cmt (Fixtures.banking ()) with
        | Error (Engine.Precondition_failed _) ->
            (* the composite inherits marker's precondition, so the engine
               already refuses it — equally safe *)
            ()
        | Error (Engine.Rewrite_failed _) -> ()
        | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f)
        | Ok _ -> Alcotest.fail "should not apply");
    Alcotest.test_case "conflicting formals are rejected" `Quick (fun () ->
        let conflicting =
          Gmt.make ~name:"T.conflict" ~concern:"testing"
            ~formals:[ Params.decl "names" Params.P_int ]
            (fun _ m -> m)
        in
        check cb "rejected" true
          (Result.is_error
             (Compose.sequence ~name:"T.bad" ~concern:"testing"
                [ adder_gmt; conflicting ])));
    Alcotest.test_case "empty composition is rejected" `Quick (fun () ->
        check cb "rejected" true
          (Result.is_error (Compose.sequence ~name:"T.none" ~concern:"t" [])));
    Alcotest.test_case "composite conditions: pre from first, post from last"
      `Quick (fun () ->
        let composite =
          Result.get_ok
            (Compose.sequence ~name:"T.c" ~concern:"testing"
               [ adder_gmt; marker_gmt ])
        in
        check ci "pre count" (List.length adder_gmt.Gmt.preconditions)
          (List.length composite.Gmt.preconditions);
        check ci "post count" (List.length marker_gmt.Gmt.postconditions)
          (List.length composite.Gmt.postconditions));
  ]

(* ---- engine -------------------------------------------------------------- *)

let engine_tests =
  [
    Alcotest.test_case "successful application" `Quick (fun () ->
        let m = Fixtures.banking () in
        match Engine.apply (adder [ "Fresh" ]) m with
        | Ok outcome ->
            check cb "class present" true
              (Mof.Query.find_class outcome.Engine.model "Fresh" <> None);
            check ci "one added" 1
              (Mof.Id.Set.cardinal outcome.Engine.diff.Mof.Diff.added)
        | Error f ->
            Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f));
    Alcotest.test_case "precondition failure leaves the model alone" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        match Engine.apply (adder [ "Account" ]) m with
        | Error (Engine.Precondition_failed [ ("fresh", _) ]) -> ()
        | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f)
        | Ok _ -> Alcotest.fail "should have failed");
    Alcotest.test_case "rewrite errors are reported" `Quick (fun () ->
        let cmt = Cmt.specialize_exn failer_gmt [] in
        match Engine.apply cmt (Fixtures.banking ()) with
        | Error (Engine.Rewrite_failed msg) ->
            check cb "message" true (String.length msg > 0)
        | _ -> Alcotest.fail "expected rewrite failure");
    Alcotest.test_case "well-formedness check catches broken rewrites" `Quick
      (fun () ->
        let cmt = Cmt.specialize_exn breaker_gmt [] in
        match Engine.apply cmt (Fixtures.banking ()) with
        | Error (Engine.Not_wellformed violations) ->
            check cb "violations" true (violations <> [])
        | _ -> Alcotest.fail "expected well-formedness failure");
    Alcotest.test_case "postcondition failure reported" `Quick (fun () ->
        let lying =
          Gmt.make ~name:"T.lying" ~concern:"testing" ~formals:[]
            ~postconditions:
              [
                Ocl.Constraint_.make ~name:"impossible"
                  "Class.allInstances()->size() = 0";
              ]
            (fun _ m -> m)
        in
        match Engine.apply (Cmt.specialize_exn lying []) (Fixtures.banking ()) with
        | Error (Engine.Postcondition_failed [ ("impossible", _) ]) -> ()
        | _ -> Alcotest.fail "expected postcondition failure");
    Alcotest.test_case "a parameter value is data, never condition syntax"
      `Quick (fun () ->
        (* spliced into the body text, this value would close the string
           literal and turn the postcondition into "... or true or ..." *)
        let identity =
          Gmt.make ~name:"T.identity" ~concern:"testing"
            ~formals:[ Params.decl "n" Params.P_string ]
            ~postconditions:
              [
                Ocl.Constraint_.make ~name:"named"
                  "Class.allInstances()->exists(c | c.name = $n$)";
              ]
            (fun _ m -> m)
        in
        let cmt =
          Cmt.specialize_exn identity
            [ ("n", Params.V_string "Nope') or true or ('x") ]
        in
        match Engine.apply cmt (Fixtures.banking ()) with
        | Error (Engine.Postcondition_failed [ ("named", Fails []) ]) -> ()
        | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f)
        | Ok _ -> Alcotest.fail "the crafted value satisfied the condition");
    Alcotest.test_case "scoped and full well-formedness agree on Fig. 2" `Quick
      (fun () ->
        (* the paper's banking pipeline: every refinement step the engine
           accepts with its scoped (journal-driven) re-validation must also
           pass the whole-model pass on the rewritten model *)
        let v_names names =
          Params.V_list (List.map (fun n -> Params.V_ident n) names)
        in
        let cmts =
          [
            Cmt.specialize_exn Concerns.Distribution.transformation
              [ ("remote", v_names [ "Account"; "Teller" ]) ];
            Cmt.specialize_exn Concerns.Transactions.transformation
              [ ("transactional", v_names [ "Account" ]) ];
            Cmt.specialize_exn Concerns.Security.transformation
              [ ("secured", v_names [ "Teller" ]) ];
          ]
        in
        let step m cmt =
          match Engine.apply cmt m with
          | Ok scoped ->
              let rewritten = Cmt.rewrite cmt m in
              check cb
                (Printf.sprintf "%s: same model" (Cmt.name cmt))
                true
                (Mof.Model.equal scoped.Engine.model rewritten);
              check cb
                (Printf.sprintf "%s: whole model well-formed" (Cmt.name cmt))
                true
                (Mof.Wellformed.check rewritten = []);
              scoped.Engine.model
          | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f)
        in
        ignore (List.fold_left step (Fixtures.banking ()) cmts));
    Alcotest.test_case "scoped and full passes report the same violations"
      `Quick (fun () ->
        let cmt = Cmt.specialize_exn breaker_gmt [] in
        let full = Mof.Wellformed.check (Cmt.rewrite cmt (Fixtures.banking ())) in
        match Engine.apply cmt (Fixtures.banking ()) with
        | Error (Engine.Not_wellformed scoped) ->
            check cb "non-empty" true (scoped <> []);
            check cb "identical" true (scoped = full)
        | _ -> Alcotest.fail "expected well-formedness failures");
  ]

(* ---- report: the one line a step prints ----------------------------------- *)

let report_tests =
  [
    Alcotest.test_case "summary contains the concrete name and the counts"
      `Quick (fun () ->
        let m = Fixtures.banking () in
        let cmt = adder [ "Fresh" ] in
        match Engine.apply cmt m with
        | Ok { Engine.diff; _ } ->
            let s = Trace.summary { Trace.cmt; diff } in
            check cb "name" true
              (String.length s > 0
              && String.sub s 0 7 = "T.adder");
            check cb "diff" true
              (String.length s >= 2
              && String.sub s (String.length s - 2) 2 = "~1")
        | Error _ -> Alcotest.fail "apply failed");
  ]

(* ---- properties ------------------------------------------------------------ *)

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"adder applies to any fresh-named model" ~count:30
        Gen.model_gen (fun m ->
          match Engine.apply (adder [ "Zz9" ]) m with
          | Ok outcome ->
              Mof.Wellformed.check outcome.Engine.model = []
              && Mof.Query.find_class outcome.Engine.model "Zz9" <> None
          | Error _ -> false);
      QCheck2.Test.make ~name:"diff of an application never removes" ~count:30
        Gen.model_gen (fun m ->
          match Engine.apply (adder [ "Zz9" ]) m with
          | Ok outcome -> Mof.Id.Set.is_empty outcome.Engine.diff.Mof.Diff.removed
          | Error _ -> false);
    ]

let () =
  Alcotest.run "transform"
    [
      ("params", params_tests);
      ("trace", trace_tests);
      ("gmt-cmt", gmt_tests);
      ("compose", compose_tests);
      ("engine", engine_tests);
      ("report", report_tests);
      ("properties", property_tests);
    ]
