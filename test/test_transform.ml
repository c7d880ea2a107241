(* Tests for the generic-transformation framework: parameters, traces,
   GMT/CMT specialization, and the checked engine. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

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
        check cb "verbose default" false (Params.get_bool set "verbose");
        check cb "limit absent" true (Params.find set "limit" = None));
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
        check cb "string for ident" true
          (Params.value_conforms (Params.V_string "A") Params.P_ident);
        check cb "ident for string" true
          (Params.value_conforms (Params.V_ident "A") Params.P_string));
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
        check cs "string" "'x'" (Params.to_ocl_literal (Params.V_string "x"));
        check cs "int" "3" (Params.to_ocl_literal (Params.V_int 3));
        check cs "bool" "true" (Params.to_ocl_literal (Params.V_bool true));
        check cs "list" "Set{'a', 'b'}"
          (Params.to_ocl_literal
             (Params.V_list [ Params.V_ident "a"; Params.V_ident "b" ])));
    Alcotest.test_case "substitution covers every assigned name" `Quick
      (fun () ->
        let set = build_ok [ ("names", Params.V_list [ Params.V_ident "A" ]) ] in
        let subst = Params.substitution set in
        List.iter
          (fun name -> check cb name true (List.mem_assoc name subst))
          (Params.names set));
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

let trace_tests =
  [
    Alcotest.test_case "sequence numbers increase" `Quick (fun () ->
        let t = Trace.empty in
        let t = Trace.record ~transformation:"T1" ~concern:"a" Mof.Diff.empty t in
        let t = Trace.record ~transformation:"T2" ~concern:"b" Mof.Diff.empty t in
        check (Alcotest.list ci) "seqs" [ 1; 2 ]
          (List.map (fun e -> e.Trace.seq) (Trace.entries t)));
    Alcotest.test_case "concern_space unions adds and mods" `Quick (fun () ->
        let t =
          Trace.record ~transformation:"T1" ~concern:"a"
            (diff_with ~added:[ 1; 2 ] ~modified:[ 3 ])
            Trace.empty
        in
        let t =
          Trace.record ~transformation:"T2" ~concern:"a"
            (diff_with ~added:[ 4 ] ~modified:[])
            t
        in
        check ci "four ids" 4 (Mof.Id.Set.cardinal (Trace.concern_space t ~concern:"a"));
        check ci "other empty" 0
          (Mof.Id.Set.cardinal (Trace.concern_space t ~concern:"b")));
    Alcotest.test_case "concerns_applied preserves first-seen order" `Quick
      (fun () ->
        let t = Trace.empty in
        let t = Trace.record ~transformation:"T1" ~concern:"b" Mof.Diff.empty t in
        let t = Trace.record ~transformation:"T2" ~concern:"a" Mof.Diff.empty t in
        let t = Trace.record ~transformation:"T3" ~concern:"b" Mof.Diff.empty t in
        check (Alcotest.list cs) "order" [ "b"; "a" ] (Trace.concerns_applied t));
    Alcotest.test_case "introduced_by is the creating concern" `Quick (fun () ->
        let t =
          Trace.record ~transformation:"T1" ~concern:"a"
            (diff_with ~added:[ 7 ] ~modified:[])
            Trace.empty
        in
        let t =
          Trace.record ~transformation:"T2" ~concern:"b"
            (diff_with ~added:[] ~modified:[ 7 ])
            t
        in
        check cb "creator wins" true
          (Trace.introduced_by t (Mof.Id.of_int 7) = Some "a");
        check cb "untraced" true (Trace.introduced_by t (Mof.Id.of_int 99) = None));
    Alcotest.test_case "drop_last" `Quick (fun () ->
        let t = Trace.record ~transformation:"T1" ~concern:"a" Mof.Diff.empty Trace.empty in
        check ci "emptied" 0 (Trace.length (Trace.drop_last t));
        check ci "empty stays empty" 0 (Trace.length (Trace.drop_last Trace.empty)));
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
    Alcotest.test_case "validate_conditions flags undeclared holes" `Quick
      (fun () ->
        let bad =
          Gmt.make ~name:"T.bad" ~concern:"testing" ~formals:[]
            ~preconditions:[ Ocl.Constraint_.make ~name:"oops" "$nothere$ = 1" ]
            (fun _ m -> m)
        in
        check cb "diagnosed" true (Gmt.validate_conditions bad <> []));
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
        let cmt = adder [ "X" ] in
        List.iter
          (fun c -> check ci "no holes" 0 (List.length (Ocl.Constraint_.holes c)))
          (Cmt.preconditions cmt @ Cmt.postconditions cmt));
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
              (Mof.Id.Set.cardinal outcome.Engine.diff.Mof.Diff.added);
            check cs "report concern" "testing" outcome.Engine.report.Report.concern
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
    Alcotest.test_case "checks can be disabled" `Quick (fun () ->
        let cmt = Cmt.specialize_exn breaker_gmt [] in
        match Engine.apply ~checks:Engine.no_checks cmt (Fixtures.banking ()) with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f));
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
    Alcotest.test_case "sessions accumulate trace and reports" `Quick (fun () ->
        let session = Engine.start (Fixtures.banking ()) in
        let session =
          match Engine.step session (adder [ "One" ]) with
          | Ok s -> s
          | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f)
        in
        let session =
          match Engine.step session (adder [ "Two" ]) with
          | Ok s -> s
          | Error f -> Alcotest.fail (Format.asprintf "%a" Engine.pp_failure f)
        in
        check ci "trace" 2 (Trace.length session.Engine.trace);
        check ci "applied" 2 (List.length session.Engine.applied);
        check ci "reports" 2 (List.length session.Engine.reports);
        check cb "initial preserved" true
          (Mof.Query.find_class session.Engine.initial "One" = None);
        check cb "current refined" true
          (Mof.Query.find_class session.Engine.current "Two" <> None));
    Alcotest.test_case "run stops at the first failure" `Quick (fun () ->
        match
          Engine.run (Fixtures.banking ())
            [ adder [ "One" ]; adder [ "One" ]; adder [ "Never" ] ]
        with
        | Error (name, Engine.Precondition_failed _) ->
            check cs "offender" "T.adder<[One]>" name
        | _ -> Alcotest.fail "expected failure on the duplicate");
    Alcotest.test_case "run on an empty sequence is the identity session"
      `Quick (fun () ->
        match Engine.run (Fixtures.banking ()) [] with
        | Ok session ->
            check ci "no trace" 0 (Trace.length session.Engine.trace);
            check cb "model untouched" true
              (Mof.Model.equal session.Engine.initial session.Engine.current)
        | Error _ -> Alcotest.fail "empty run must succeed");
    Alcotest.test_case "failed step leaves the session unchanged" `Quick
      (fun () ->
        let session = Engine.start (Fixtures.banking ()) in
        match Engine.step session (adder [ "Account" ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected failure");
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

(* ---- report --------------------------------------------------------------- *)

let report_tests =
  [
    Alcotest.test_case "summary contains the concrete name and the counts"
      `Quick (fun () ->
        let m = Fixtures.banking () in
        match Engine.apply (adder [ "Fresh" ]) m with
        | Ok outcome ->
            let s = Report.summary outcome.Engine.report in
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
              Mof.Wellformed.is_wellformed outcome.Engine.model
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
