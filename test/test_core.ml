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

(* The platform projection, as the concern registry serves it. *)
let platform_gmt () =
  Option.get (Concerns.Registry.find_gmt "platform")

(* ---- level -------------------------------------------------------------- *)

let level_tests =
  [
    Alcotest.test_case "mark and read back" `Quick (fun () ->
        let m = Fixtures.banking () in
        check cb "unmarked" true (Concerns.Level.of_model m = None);
        let m = Concerns.Level.mark Concerns.Level.Pim m in
        check cb "pim" true (Concerns.Level.of_model m = Some Concerns.Level.Pim);
        let m = Concerns.Level.mark (Concerns.Level.Psm "corba") m in
        check cb "psm" true (Concerns.Level.of_model m = Some (Concerns.Level.Psm "corba"));
        check cs "rendering" "PSM(corba)"
          (Concerns.Level.to_string (Concerns.Level.Psm "corba")));
  ]

(* ---- platform projection -------------------------------------------------- *)

let platform_tests =
  [
    Alcotest.test_case "requires a PIM" `Quick (fun () ->
        let cmt =
          Transform.Cmt.specialize_exn (platform_gmt ())
            [ ("platform", Transform.Params.V_string "corba") ]
        in
        match Transform.Engine.apply cmt (Fixtures.banking ()) with
        | Error (Transform.Engine.Precondition_failed _) -> ()
        | _ -> Alcotest.fail "unmarked model should be refused");
    Alcotest.test_case "projects a PIM to a stereotyped PSM" `Quick (fun () ->
        let m = Concerns.Level.mark Concerns.Level.Pim (Fixtures.banking ()) in
        let cmt =
          Transform.Cmt.specialize_exn (platform_gmt ())
            [ ("platform", Transform.Params.V_string "j2ee") ]
        in
        match Transform.Engine.apply cmt m with
        | Ok outcome ->
            let psm = outcome.Transform.Engine.model in
            check cb "level" true
              (Concerns.Level.of_model psm = Some (Concerns.Level.Psm "j2ee"));
            check cb "ejb stereotype" true
              (List.for_all
                 (Mof.Element.has_stereotype "ejb")
                 (Mof.Query.classes psm))
        | Error f ->
            Alcotest.fail (Format.asprintf "%a" Transform.Engine.pp_failure f));
    Alcotest.test_case "infrastructure classes are not stereotyped" `Quick
      (fun () ->
        let m = Concerns.Level.mark Concerns.Level.Pim (Fixtures.banking ()) in
        let m, infra = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"Infra" in
        let m = Mof.Builder.add_stereotype m infra "infrastructure" in
        let cmt =
          Transform.Cmt.specialize_exn (platform_gmt ())
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
        (* every platform the parameter admits gives each class a component
           stereotype *)
        let gmt = platform_gmt () in
        let platforms =
          match gmt.Transform.Gmt.formals with
          | [ { Transform.Params.ptype = Transform.Params.P_enum ps; _ } ] -> ps
          | _ -> Alcotest.fail "one enum formal expected"
        in
        check ci "four platforms" 4 (List.length platforms);
        List.iter
          (fun p ->
            let cmt =
              Transform.Cmt.specialize_exn gmt [ ("platform", Transform.Params.V_string p) ]
            in
            match
              Transform.Engine.apply cmt (Concerns.Level.mark Concerns.Level.Pim (Fixtures.banking ()))
            with
            | Ok outcome ->
                check cb p true
                  (List.for_all
                     (fun (c : Mof.Element.t) -> c.Mof.Element.stereotypes <> [])
                     (Mof.Query.classes outcome.Transform.Engine.model))
            | Error f -> Alcotest.fail (Format.asprintf "%a" Transform.Engine.pp_failure f))
          platforms);
  ]

(* ---- project / pipeline ------------------------------------------------------ *)

let pipeline_tests =
  [
    Alcotest.test_case "create marks the PIM and commits it" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        check cb "pim" true
          (Concerns.Level.of_model (Core.Project.model project) = Some Concerns.Level.Pim);
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
          (List.length (Transform.Trace.concerns_applied project.Core.Project.trace));
        check cb "repo head refined" true
          (contains (Core.Project.history project) "apply T.security");
        check (Alcotest.list cs) "concern order"
          [ "distribution"; "transactions"; "security" ]
          (Transform.Trace.concerns_applied project.Core.Project.trace));
    Alcotest.test_case "each step adds one entry" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        let steps (p : Core.Project.t) = (p.trace :> Transform.Trace.entry list) in
        let project, first =
          refine_exn project ~concern:"distribution"
            ~params:[ ("remote", v_names [ "Account" ]) ]
        in
        check ci "one entry" 1 (List.length (steps project));
        let project, second =
          refine_exn project ~concern:"transactions"
            ~params:[ ("transactional", v_names [ "Account" ]) ]
        in
        check cb "the entries refine returned, in order" true
          (match steps project with [ a; b ] -> a == first && b == second | _ -> false);
        check ci "two applied" 2 (List.length (Core.Project.applied project));
        check cb "initial preserved" true
          (Mof.Query.find_class (Core.Project.initial_model project) "AccountProxy" = None);
        check cb "current refined" true
          (Mof.Query.find_class (Core.Project.model project) "AccountProxy" <> None));
    Alcotest.test_case "no steps leaves the initial model" `Quick (fun () ->
        let project = Core.Project.create (Fixtures.banking ()) in
        check ci "no entries" 0 (List.length (Core.Project.applied project));
        check cb "current is initial" true
          (Core.Project.model project == Core.Project.initial_model project));
    Alcotest.test_case "a refused step leaves the project physically unchanged"
      `Quick (fun () ->
        let project, _ =
          refine_exn
            (Core.Project.create (Fixtures.banking ()))
            ~concern:"distribution"
            ~params:[ ("remote", v_names [ "Account" ]) ]
        in
        let model = Core.Project.model project in
        (* Account is distributed already: the precondition refuses *)
        match
          Core.Pipeline.refine project ~concern:"distribution"
            ~params:[ ("remote", v_names [ "Account" ]) ]
        with
        | Error (Core.Pipeline.Engine_failure _) ->
            check cb "model" true (Core.Project.model project == model);
            check ci "one entry" 1 (List.length (Core.Project.applied project));
            check ci "root and one commit" 2
              (Repository.Repo.size project.Core.Project.repo)
        | Error e -> Alcotest.fail (Core.Pipeline.error_to_string e)
        | Ok _ -> Alcotest.fail "expected the engine to refuse");
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
          (List.length (Transform.Trace.concerns_applied project'.Core.Project.trace));
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
        match Core.Project.progress project' with
        | Some p ->
            check (Alcotest.list cs) "replayed" [ "distribution" ]
              (List.map snd (Workflow.State.completed p))
        | None -> Alcotest.fail "progress lost");
  ]

(* ---- a project's views against its repository ---------------------------- *)

(* One random step: a builtin concern with a non-empty target list drawn
   from the banking PIM. A step may still be refused (a class distributed
   twice, say); a refused step is an operation the views must survive too. *)
let random_step rng =
  let classes () =
    match
      List.filter
        (fun _ -> Check.Prng.bool rng)
        [ "Account"; "Teller"; "Customer"; "SavingsAccount" ]
    with
    | [] -> [ "Account" ]
    | names -> names
  in
  match Check.Prng.int rng 7 with
  | 0 -> ("distribution", [ ("remote", v_names (classes ())) ])
  | 1 -> ("transactions", [ ("transactional", v_names (classes ())) ])
  | 2 -> ("security", [ ("secured", v_names (classes ())) ])
  | 3 -> ("concurrency", [ ("guarded", v_names (classes ())) ])
  | 4 -> ("persistence", [ ("persistent", v_names (classes ())) ])
  | 5 ->
      ( "messaging",
        [ ("async", v_names [ Check.Prng.choose rng [ "Account.deposit"; "Teller.transfer" ] ]) ] )
  | _ ->
      ( "logging",
        [
          ( "targets",
            Transform.Params.V_list
              [ Transform.Params.V_string (Check.Prng.choose rng [ "*"; "Account" ]) ] );
        ] )

let same_diff (a : Mof.Diff.t) (b : Mof.Diff.t) =
  Mof.Id.Set.equal a.added b.added
  && Mof.Id.Set.equal a.removed b.removed
  && Mof.Id.Set.equal a.modified b.modified

(* The commits above the root, oldest first. *)
let step_commits repo =
  match List.rev (Repository.Repo.log repo) with
  | [] -> []
  | _root :: commits -> commits

let check_views what p =
  let repo = p.Core.Project.repo in
  let applied = Core.Project.applied p in
  let diffs =
    List.map
      (fun (e : Transform.Trace.entry) -> e.diff)
      (p.Core.Project.trace :> Transform.Trace.entry list)
  in
  let commits = step_commits repo in
  check ci (what ^ ": one step per commit above the root")
    (List.length (Repository.Repo.log repo) - 1)
    (List.length applied);
  check (Alcotest.list (Alcotest.option cs)) (what ^ ": concerns in commit order")
    (List.map (fun c -> c.Repository.Commit.concern) commits)
    (List.map (fun cmt -> Some (Transform.Cmt.concern cmt)) applied);
  check cb (what ^ ": each step's diff is its commit's")
    true
    (List.length diffs = List.length commits
    && List.for_all2 (fun d c -> same_diff d c.Repository.Commit.diff) diffs commits);
  check cb (what ^ ": the model is the head's") true
    (Core.Project.model p == Repository.Repo.head_model repo)

let view_tests =
  [
    Alcotest.test_case "refine and undo keep every view on the repository"
      `Quick (fun () ->
        let rng = Check.Prng.make 42L in
        let accepted = ref 0 and undone = ref 0 in
        for run = 1 to 12 do
          let p = Core.Project.create (Fixtures.banking ()) in
          check_views (Printf.sprintf "run %d, created" run) p;
          ignore
            (List.fold_left
               (fun p op ->
                 let what = Printf.sprintf "run %d, op %d" run op in
                 let p =
                   if Check.Prng.chance rng 1 4 then (
                     match Core.Pipeline.undo p with
                     | Some p ->
                         incr undone;
                         p
                     | None -> p)
                   else
                     let concern, params = random_step rng in
                     match Core.Pipeline.refine p ~concern ~params with
                     | Ok (p, _) ->
                         incr accepted;
                         p
                     | Error _ -> p
                 in
                 check_views what p;
                 p)
               p (List.init 10 Fun.id))
        done;
        check cb "steps were accepted and undone" true (!accepted > 20 && !undone > 5));
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
          (List.for_all
             (fun (u : Code.Junit.t) ->
               List.for_all
                 (function
                   | Code.Jdecl.Interface i -> i.Code.Jdecl.iface_name <> "AccountRemote"
                   | Code.Jdecl.Class _ -> true)
                 u.Code.Junit.decls)
             functional);
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
          (contains
             (Code.Printer.program_to_string artifacts.Core.Artifacts.woven)
             "tx.begin(\"serializable\""));
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

let append_manifest dir line =
  let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir "MANIFEST") in
  output_string oc line;
  close_out oc

let shipping_tests =
  [
    Alcotest.test_case "manifest records concerns and parameters" `Quick
      (fun () ->
        let manifest =
          with_temp_dir (fun dir ->
              Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
              In_channel.with_open_bin (Filename.concat dir "MANIFEST") In_channel.input_all)
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
        (* a step appended to the manifest refines the replayed project
           past the shipped final model *)
        with_temp_dir (fun dir ->
            Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
            append_manifest dir "step\tlogging\ttargets=*\n";
            match Core.Shipping.verify ~dir with
            | Ok same -> check cb "refined past final" false same
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "manifest parsing rejects malformed lines" `Quick
      (fun () ->
        let replays_line line =
          with_temp_dir (fun dir ->
              Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
              append_manifest dir line;
              Result.is_ok (Core.Shipping.verify ~dir))
        in
        check cb "bad keyword" false (replays_line "frob\tx\ty=1\n");
        check cb "missing equals" false (replays_line "step\tsecurity\troles\n"));
    Alcotest.test_case "unshippable values are refused, not mangled" `Quick
      (fun () ->
        let ship value =
          let project, _ =
            refine_exn (Core.Project.create (Fixtures.banking ())) ~concern:"logging"
              ~params:[ ("targets", Transform.Params.V_list [ value ]) ]
          in
          with_temp_dir (fun dir -> Core.Shipping.ship ~dir project)
        in
        check cb "tab" true (Result.is_error (ship (Transform.Params.V_string "a\tb")));
        check cb "comma in list item" true
          (Result.is_error (ship (Transform.Params.V_string "a,b")));
        check cb "plain ok" true (ship (Transform.Params.V_string "plain") = Ok ()));
    Alcotest.test_case "replay fails cleanly on an unknown concern" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            Result.get_ok (Core.Shipping.ship ~dir (fig2_project ()));
            append_manifest dir "step\tghost-concern\tx=1\n";
            match Core.Shipping.verify ~dir with
            | Error msg -> check cb "names it" true (contains msg "ghost-concern")
            | Ok _ -> Alcotest.fail "should fail"));
  ]

let () =
  Alcotest.run "core"
    [
      ("level", level_tests);
      ("platform", platform_tests);
      ("pipeline", pipeline_tests);
      ("views", view_tests);
      ("artifacts", artifact_tests @ interference_artifact_tests);
      ("shipping", shipping_tests);
    ]
