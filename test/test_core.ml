(* Tests for the core pipeline: levels, platform projection, projects,
   refinement, undo, artifact builds, and the monolithic ablation. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let v_names names =
  Transform.Params.V_list (List.map (fun n -> Transform.Params.V_ident n) names)

let refine_exn project ~concern ~params =
  match Core.Pipeline.refine project ~concern ~params with
  | Ok (project, report) -> (project, report)
  | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)

(* the Fig. 2 project: banking + distribution + transactions + security *)
let fig2_project () =
  let project = Core.Project.create (Fixtures.banking ()) in
  let project, _ =
    refine_exn project ~concern:"distribution"
      ~params:[ ("remote", v_names [ "Account"; "Teller" ]) ]
  in
  let project, _ =
    refine_exn project ~concern:"transactions"
      ~params:[ ("transactional", v_names [ "Account" ]) ]
  in
  let project, _ =
    refine_exn project ~concern:"security"
      ~params:[ ("secured", v_names [ "Teller" ]) ]
  in
  project

(* ---- level -------------------------------------------------------------- *)

let level_tests =
  [
    Alcotest.test_case "mark and read back" `Quick (fun () ->
        let m = Fixtures.banking () in
        check cb "unmarked" true (Core.Level.of_model m = None);
        let m = Core.Level.mark Core.Level.Pim m in
        check cb "pim" true (Core.Level.is_pim m);
        let m = Core.Level.mark (Core.Level.Psm "corba") m in
        check cb "psm" true (Core.Level.of_model m = Some (Core.Level.Psm "corba"));
        check cs "rendering" "PSM(corba)"
          (Core.Level.to_string (Core.Level.Psm "corba")));
  ]

(* ---- platform projection -------------------------------------------------- *)

let platform_tests =
  [
    Alcotest.test_case "requires a PIM" `Quick (fun () ->
        let cmt =
          Transform.Cmt.specialize_exn Core.Platform.transformation
            [ ("platform", Transform.Params.V_string "corba") ]
        in
        match Transform.Engine.apply cmt (Fixtures.banking ()) with
        | Error (Transform.Engine.Precondition_failed _) -> ()
        | _ -> Alcotest.fail "unmarked model should be refused");
    Alcotest.test_case "projects a PIM to a stereotyped PSM" `Quick (fun () ->
        let m = Core.Level.mark Core.Level.Pim (Fixtures.banking ()) in
        let cmt =
          Transform.Cmt.specialize_exn Core.Platform.transformation
            [ ("platform", Transform.Params.V_string "j2ee") ]
        in
        match Transform.Engine.apply cmt m with
        | Ok outcome ->
            let psm = outcome.Transform.Engine.model in
            check cb "level" true
              (Core.Level.of_model psm = Some (Core.Level.Psm "j2ee"));
            check cb "ejb stereotype" true
              (List.for_all
                 (Mof.Element.has_stereotype "ejb")
                 (Mof.Query.classes psm))
        | Error f ->
            Alcotest.fail (Format.asprintf "%a" Transform.Engine.pp_failure f));
    Alcotest.test_case "infrastructure classes are not stereotyped" `Quick
      (fun () ->
        let m = Core.Level.mark Core.Level.Pim (Fixtures.banking ()) in
        let m, infra = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"Infra" in
        let m = Mof.Builder.add_stereotype m infra "infrastructure" in
        let cmt =
          Transform.Cmt.specialize_exn Core.Platform.transformation
            [ ("platform", Transform.Params.V_string "corba") ]
        in
        match Transform.Engine.apply cmt m with
        | Ok outcome ->
            check cb "skipped" false
              (Mof.Element.has_stereotype "corba-servant"
                 (Mof.Model.find_exn outcome.Transform.Engine.model infra))
        | Error f ->
            Alcotest.fail (Format.asprintf "%a" Transform.Engine.pp_failure f));
    Alcotest.test_case "stereotype_for covers every platform" `Quick (fun () ->
        List.iter
          (fun p ->
            check cb p true (String.length (Core.Platform.stereotype_for p) > 0))
          Core.Platform.platforms);
    Alcotest.test_case "ensure_registered is idempotent" `Quick (fun () ->
        Core.Platform.ensure_registered ();
        Core.Platform.ensure_registered ();
        check cb "registered" true (Concerns.Registry.find "platform" <> None));
  ]

(* ---- project / pipeline ------------------------------------------------------ *)

let pipeline_tests =
  [
    Alcotest.test_case "create marks the PIM and commits it" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        check cb "pim" true (Core.Level.is_pim (Core.Project.model project));
        check cb "history has the root" true
          (contains (Core.Project.history project) "initial model"));
    Alcotest.test_case "unknown concern refused" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        check cb "error" true
          (Result.is_error (Core.Pipeline.refine project ~concern:"nope" ~params:[])));
    Alcotest.test_case "parameter problems refused" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        match Core.Pipeline.refine project ~concern:"distribution" ~params:[] with
        | Error e ->
            let msg = Core.Pipeline.error_to_string e in
            check cb "mentions the parameter" true (contains msg "remote")
        | Ok _ -> Alcotest.fail "should fail");
    Alcotest.test_case "workflow violations refused" `Quick (fun () ->
        let project =
          Core.Project.create ~workflow:Workflow.State.middleware_default
            (Fixtures.banking ())
        in
        match
          Core.Pipeline.refine project ~concern:"security"
            ~params:[ ("secured", v_names [ "Teller" ]) ]
        with
        | Error e ->
            let msg = Core.Pipeline.error_to_string e in
            check cb "mentions the step" true (contains msg "distribute")
        | Ok _ -> Alcotest.fail "should fail");
    Alcotest.test_case "refinement updates model, trace, and repository" `Quick
      (fun () ->
        let project = fig2_project () in
        check ci "three applied" 3 (List.length (Core.Project.applied project));
        check ci "trace entries" 3
          (Transform.Trace.length (Core.Project.trace project));
        check cb "repo head refined" true
          (contains (Core.Project.history project) "apply T.security");
        check (Alcotest.list cs) "concern order"
          [ "distribution"; "transactions"; "security" ]
          (Transform.Trace.concerns_applied (Core.Project.trace project)));
    Alcotest.test_case "coloring demarcates the concern spaces" `Quick
      (fun () ->
        let text = Core.Project.coloring (fig2_project ()) in
        check cb "red distribution" true (contains text "[red] Class AccountProxy");
        check cb "legend" true (contains text "red — distribution");
        check cb "functional unmarked" true (contains text "\nClass Account"));
    Alcotest.test_case "undo reverts model, trace, and repository" `Quick
      (fun () ->
        let project = fig2_project () in
        let project' = Option.get (Core.Pipeline.undo project) in
        check ci "two applied" 2 (List.length (Core.Project.applied project'));
        check ci "trace shrank" 2
          (Transform.Trace.length (Core.Project.trace project'));
        check cb "secured gone" true
          (Mof.Model.fold
             (fun e gone -> gone && not (Mof.Element.has_stereotype "secured" e))
             (Core.Project.model project') true);
        check cb "redo target" true
          (match Core.Pipeline.redo_info project' with
          | Some msg -> contains msg "T.security"
          | None -> false));
    Alcotest.test_case "undo on a fresh project is None" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        check cb "none" true (Core.Pipeline.undo project = None);
        check cb "no redo either" true (Core.Pipeline.redo_info project = None));
    Alcotest.test_case "undo rebuilds workflow progress" `Quick (fun () ->
        let project =
          Core.Project.create ~workflow:Workflow.State.middleware_default
            (Fixtures.banking ())
        in
        let project, _ =
          refine_exn project ~concern:"distribution"
            ~params:[ ("remote", v_names [ "Account" ]) ]
        in
        let project, _ =
          refine_exn project ~concern:"transactions"
            ~params:[ ("transactional", v_names [ "Account" ]) ]
        in
        let project' = Option.get (Core.Pipeline.undo project) in
        match project'.Core.Project.progress with
        | Some p ->
            check (Alcotest.list cs) "replayed" [ "distribution" ]
              (Workflow.State.applied_concerns p)
        | None -> Alcotest.fail "progress lost");
  ]

(* ---- artifacts ------------------------------------------------------------------ *)

let artifact_tests =
  [
    Alcotest.test_case "functional code excludes concern elements" `Quick
      (fun () ->
        let project = fig2_project () in
        let functional = Core.Pipeline.functional_code project in
        check cb "no proxy" true (Code.Junit.find_class functional "AccountProxy" = None);
        check cb "no naming service" true
          (Code.Junit.find_class functional "NamingService" = None);
        check cb "no remote interface" true
          (Code.Junit.find_interface functional "AccountRemote" = None);
        check cb "functional classes present" true
          (Code.Junit.find_class functional "Account" <> None));
    Alcotest.test_case "monolithic code includes everything" `Quick (fun () ->
        let project = fig2_project () in
        let monolithic = Core.Pipeline.monolithic_code project in
        check cb "proxy present" true
          (Code.Junit.find_class monolithic "AccountProxy" <> None);
        check cb "manager present" true
          (Code.Junit.find_class monolithic "TransactionManager" <> None));
    Alcotest.test_case "one aspect per transformation, in order" `Quick
      (fun () ->
        let project = fig2_project () in
        match Core.Pipeline.aspects project with
        | Ok generated ->
            check (Alcotest.list cs) "names"
              [ "DistributionAspect"; "TransactionAspect"; "SecurityAspect" ]
              (List.map
                 (fun g -> g.Aspects.Generator.aspect.Aspects.Aspect.aspect_name)
                 generated);
            check (Alcotest.list ci) "seqs" [ 1; 2; 3 ]
              (List.map (fun g -> g.Aspects.Generator.seq) generated)
        | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e));
    Alcotest.test_case "build weaves with transformation-order precedence"
      `Quick (fun () ->
        let project = fig2_project () in
        match Core.Pipeline.build project with
        | Ok artifacts ->
            check ci "three aspects" 3 (List.length artifacts.Core.Artifacts.generated_aspects);
            check cb "applications recorded" true
              (artifacts.Core.Artifacts.applications <> []);
            (* distribution (seq 1) outermost: the export call is the first
               statement of Account.withdraw, before the tx around advice *)
            (match Code.Junit.find_class artifacts.Core.Artifacts.woven "Account" with
            | Some c -> (
                match Code.Jdecl.find_method c "withdraw" with
                | Some { Code.Jdecl.body = Some (first :: _); _ } ->
                    check cb "export first" true
                      (contains (Code.Printer.stmt_to_string first) "RemoteRuntime.ensureExported")
                | _ -> Alcotest.fail "withdraw body missing")
            | None -> Alcotest.fail "Account missing");
            check cb "precedence listing" true
              (contains
                 (Core.Artifacts.precedence_listing artifacts)
                 "1. DistributionAspect")
        | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e));
    Alcotest.test_case "functional code is invariant under reconfiguration"
      `Quick (fun () ->
        (* change the security parameters: functional code must not change *)
        let p1 = fig2_project () in
        let p2 = Option.get (Core.Pipeline.undo p1) in
        let p2, _ =
          refine_exn p2 ~concern:"security"
            ~params:
              [
                ("secured", v_names [ "Teller" ]);
                ( "roles",
                  Transform.Params.V_list [ Transform.Params.V_string "auditor" ] );
              ]
        in
        let a1 = Result.get_ok (Core.Pipeline.build p1) in
        let a2 = Result.get_ok (Core.Pipeline.build p2) in
        check cb "functional equal" true
          (Code.Junit.equal a1.Core.Artifacts.functional a2.Core.Artifacts.functional);
        check cb "woven differs" false
          (Code.Junit.equal a1.Core.Artifacts.woven a2.Core.Artifacts.woven));
    Alcotest.test_case "summary and renderings" `Quick (fun () ->
        let artifacts = Result.get_ok (Core.Pipeline.build (fig2_project ())) in
        check cb "summary mentions aspects" true
          (contains (Core.Artifacts.summary artifacts) "3 aspect(s)");
        check cb "aspect source" true
          (contains (Core.Artifacts.render_aspects artifacts) "public aspect TransactionAspect");
        check cb "woven source" true
          (contains (Core.Artifacts.render_woven artifacts) "tx.begin(\"serializable\""));
    Alcotest.test_case "write_to_dir produces the artifact files" `Quick
      (fun () ->
        let artifacts = Result.get_ok (Core.Pipeline.build (fig2_project ())) in
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "mdweave-artifacts-%d" (Unix.getpid ()))
        in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir then begin
              Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
              Sys.rmdir dir
            end)
          (fun () ->
            Core.Artifacts.write_to_dir dir artifacts;
            List.iter
              (fun f ->
                check cb f true (Sys.file_exists (Filename.concat dir f)))
              [ "functional.java"; "aspects.aj"; "woven.java"; "BUILD-REPORT.txt" ]));
  ]

let interference_artifact_tests =
  [
    Alcotest.test_case "fig2 interference: Account shared between concerns"
      `Quick (fun () ->
        let artifacts = Result.get_ok (Core.Pipeline.build (fig2_project ())) in
        let report = Core.Artifacts.interference artifacts in
        (* Account methods carry distribution (before) and transactions
           (around); Teller methods carry distribution and security *)
        check cb "some sharing" true (report.Weaver.Interference.shared <> []);
        let shared_describes =
          List.map
            (fun (e : Weaver.Interference.entry) ->
              Weaver.Joinpoint.describe e.Weaver.Interference.at)
            report.Weaver.Interference.shared
        in
        check cb "deposit shared" true
          (List.mem "execution(Account.deposit)" shared_describes);
        check cb "transfer shared" true
          (List.mem "execution(Teller.transfer)" shared_describes);
        (* precedence order within a shared entry matches transformation order *)
        let deposit =
          List.find
            (fun (e : Weaver.Interference.entry) ->
              Weaver.Joinpoint.describe e.Weaver.Interference.at
              = "execution(Account.deposit)")
            report.Weaver.Interference.shared
        in
        check (Alcotest.list cs) "order" [ "distribution"; "transactions" ]
          (List.map
             (fun (a : Weaver.Interference.advising) ->
               a.Weaver.Interference.concern)
             deposit.Weaver.Interference.advisers));
    Alcotest.test_case "BUILD-REPORT includes the interference analysis" `Quick
      (fun () ->
        let artifacts = Result.get_ok (Core.Pipeline.build (fig2_project ())) in
        let text =
          Weaver.Interference.render (Core.Artifacts.interference artifacts)
        in
        check cb "marked" true (contains text "[!] execution(Account.deposit)"));
  ]

(* ---- shipping ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdweave-ship-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let shipping_tests =
  [
    Alcotest.test_case "manifest records concerns and parameters" `Quick
      (fun () ->
        let manifest =
          Result.get_ok (Core.Shipping.manifest_of (fig2_project ()))
        in
        List.iter
          (fun needle -> check cb needle true (contains manifest needle))
          [
            "step\tdistribution\tremote=Account,Teller";
            "step\ttransactions\ttransactional=Account";
            "step\tsecurity\tsecured=Teller";
            "isolation=serializable";
          ]);
    Alcotest.test_case "ship writes every version plus the manifest" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
            List.iter
              (fun f -> check cb f true (Sys.file_exists (Filename.concat dir f)))
              [
                "initial.xmi";
                "step-1.xmi";
                "step-2.xmi";
                "step-3.xmi";
                "final.xmi";
                "MANIFEST";
              ]));
    Alcotest.test_case "replay reproduces the shipped final model" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
            check cb "verified" true (Result.get_ok (Core.Shipping.verify ~dir))));
    Alcotest.test_case "replayed project can keep refining" `Quick (fun () ->
        with_temp_dir (fun dir ->
            Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
            let project = Result.get_ok (Core.Shipping.replay ~dir) in
            match
              Core.Pipeline.refine project ~concern:"logging"
                ~params:
                  [
                    ( "targets",
                      Transform.Params.V_list [ Transform.Params.V_string "*" ] );
                  ]
            with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)));
    Alcotest.test_case "manifest parsing rejects malformed lines" `Quick
      (fun () ->
        check cb "bad keyword" true
          (Result.is_error (Core.Shipping.load_manifest "frob\tx\ty=1"));
        check cb "missing equals" true
          (Result.is_error (Core.Shipping.load_manifest "step\tsecurity\troles")));
    Alcotest.test_case "unshippable values are refused, not mangled" `Quick
      (fun () ->
        check cb "tab" true
          (Result.is_error
             (Core.Shipping.to_wizard_text (Transform.Params.V_string "a\tb")));
        check cb "comma in list item" true
          (Result.is_error
             (Core.Shipping.to_wizard_text
                (Transform.Params.V_list [ Transform.Params.V_string "a,b" ])));
        check cb "plain ok" true
          (Core.Shipping.to_wizard_text (Transform.Params.V_string "plain")
          = Ok "plain"));
    Alcotest.test_case "replay fails cleanly on an unknown concern" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
            let path = Filename.concat dir "MANIFEST" in
            let oc = open_out_gen [ Open_append ] 0o644 path in
            output_string oc "step\tghost-concern\tx=1\n";
            close_out oc;
            match Core.Shipping.replay ~dir with
            | Error msg -> check cb "names it" true (contains msg "ghost-concern")
            | Ok _ -> Alcotest.fail "should fail"));
  ]

let () =
  Alcotest.run "core"
    [
      ("level", level_tests);
      ("platform", platform_tests);
      ("pipeline", pipeline_tests);
      ("artifacts", artifact_tests @ interference_artifact_tests);
      ("shipping", shipping_tests);
    ]
