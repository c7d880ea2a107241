(* The benchmark harness: one experiment per figure/claim of the paper (see
   DESIGN.md Section 3 and EXPERIMENTS.md for the index).

   The paper is a position paper with no measured evaluation, so E1 and E2
   regenerate its two figures as executable artifacts and the remaining
   experiments quantify the Section 3 infrastructure requirements, three
   ablations, and the interpreted runtime overhead. Output: one row per benchmark, nanoseconds per run estimated
   by OLS over monotonic-clock samples. *)

open Bechamel
open Toolkit

let v_names names =
  Transform.Params.V_list (List.map (fun n -> Transform.Params.V_ident n) names)

(* ---- workload builders -------------------------------------------------- *)

let synthetic = Fixtures.synthetic

(* the Fig. 2 banking pipeline, reusable *)
let fig2_project () =
  let project = Core.Project.create (Fixtures.banking ()) in
  let refine project concern params =
    match Core.Pipeline.refine project ~concern ~params with
    | Ok (project, _) -> project
    | Error e -> failwith (Core.Pipeline.error_to_string e)
  in
  let project =
    refine project "distribution" [ ("remote", v_names [ "Account"; "Teller" ]) ]
  in
  let project =
    refine project "transactions" [ ("transactional", v_names [ "Account" ]) ]
  in
  refine project "security" [ ("secured", v_names [ "Teller" ]) ]

let tx_cmt_for target =
  Transform.Cmt.specialize_exn Concerns.Transactions.transformation
    [ ("transactional", v_names [ target ]) ]

(* ---- E1: Fig. 1 — one refinement step ----------------------------------- *)

let e1_tests =
  let step m =
    (* specialize GMT -> CMT, checked apply, generate CAC from the same S *)
    let cmt = tx_cmt_for "C0" in
    match Transform.Engine.apply cmt m with
    | Ok outcome ->
        let cac =
          Aspects.Generator.from_cmt Concerns.Transactions.generic_aspect ~seq:1
            cmt
        in
        ignore outcome;
        ignore cac
    | Error f -> failwith (Format.asprintf "%a" Transform.Engine.pp_failure f)
  in
  List.map
    (fun n ->
      let m = synthetic n in
      Test.make
        ~name:(Printf.sprintf "fig1/refine-step:%d-classes" n)
        (Staged.stage (fun () -> step m)))
    [ 10; 50; 100; 200 ]

(* ---- E2: Fig. 2 — full three-concern pipeline ---------------------------- *)

let e2_tests =
  [
    Test.make ~name:"fig2/pipeline:refine-3-concerns"
      (Staged.stage (fun () -> ignore (fig2_project ())));
    Test.make ~name:"fig2/pipeline:build-artifacts"
      (let project = fig2_project () in
       Staged.stage (fun () ->
           match Core.Pipeline.build project with
           | Ok a -> ignore a
           | Error e -> failwith (Core.Pipeline.error_to_string e)));
    Test.make ~name:"fig2/pipeline:end-to-end"
      (Staged.stage (fun () ->
           let project = fig2_project () in
           match Core.Pipeline.build project with
           | Ok a -> ignore a
           | Error e -> failwith (Core.Pipeline.error_to_string e)));
    Test.make ~name:"fig2/pipeline:pim-construction-baseline"
      (Staged.stage (fun () -> ignore (Fixtures.banking ())));
    Test.make ~name:"fig2/pipeline:coloring"
      (let project = fig2_project () in
       Staged.stage (fun () -> ignore (Core.Project.coloring project)));
  ]

(* ---- E3: OCL precondition evaluation cost -------------------------------- *)

let e3_tests =
  let precondition =
    Ocl.Constraint_.make ~name:"fresh"
      "Set{'C0', 'C1'}->forAll(n | Class.allInstances()->exists(c | c.name = n))"
  in
  let heavy =
    Ocl.Constraint_.make ~name:"heavy"
      "Class.allInstances()->forAll(c | c.operations->forAll(o | \
       o.parameters->forAll(p | p.type <> '')))"
  in
  List.concat_map
    (fun n ->
      let m = synthetic n in
      [
        Test.make
          ~name:(Printf.sprintf "ocl/eval:precondition:%d-classes" n)
          (Staged.stage (fun () -> ignore (Ocl.Constraint_.check m precondition)));
        Test.make
          ~name:(Printf.sprintf "ocl/eval:nested-forall:%d-classes" n)
          (Staged.stage (fun () -> ignore (Ocl.Constraint_.check m heavy)));
      ])
    [ 10; 50; 100 ]
  @ [
      Test.make ~name:"ocl/eval:parse-only"
        (Staged.stage (fun () ->
             ignore
               (Ocl.Parser.parse
                  "Class.allInstances()->forAll(c | c.attributes->forAll(a | \
                   a.lower >= 0))")));
    ]

(* ---- E4: XMI round-trip throughput ---------------------------------------- *)

let e4_tests =
  List.concat_map
    (fun n ->
      let m = synthetic n in
      let text = Xmi.Export.to_string m in
      [
        Test.make
          ~name:(Printf.sprintf "xmi/roundtrip:export:%d-classes" n)
          (Staged.stage (fun () -> ignore (Xmi.Export.to_string m)));
        Test.make
          ~name:(Printf.sprintf "xmi/roundtrip:import:%d-classes" n)
          (Staged.stage (fun () -> ignore (Xmi.Import.from_string text)));
      ])
    [ 10; 50; 100 ]

(* ---- E5: weaving cost vs number of aspects --------------------------------- *)

(* Shared by E5 and E16: the paper's logging concern specialized to every
   class, replicated with distinct sequence numbers to scale aspect count. *)
let logging_set =
  match
    Transform.Params.build Concerns.Logging.formals
      [ ("targets", Transform.Params.V_list [ Transform.Params.V_string "*" ]) ]
  with
  | Ok set -> set
  | Error _ -> assert false

let logging_aspect i =
  {
    Aspects.Generator.aspect =
      Aspects.Generic.specialize_with_set Concerns.Logging.generic_aspect
        logging_set;
    from_transformation = Printf.sprintf "T.logging#%d" i;
    seq = i;
  }

let e5_tests =
  let program = Code.Generator.generate (synthetic 50) in
  List.map
    (fun k ->
      let aspects = List.init k (fun i -> logging_aspect (i + 1)) in
      Test.make
        ~name:(Printf.sprintf "weave/scale:%d-aspects" k)
        (Staged.stage (fun () -> ignore (Weaver.Weave.weave aspects program))))
    [ 1; 2; 4; 8 ]
  @ List.map
      (fun n ->
        let program_n = Code.Generator.generate (synthetic n) in
        let aspects = [ logging_aspect 1 ] in
        Test.make
          ~name:(Printf.sprintf "weave/scale:program-size:%d-classes" n)
          (Staged.stage (fun () -> ignore (Weaver.Weave.weave aspects program_n))))
      [ 10; 50; 100 ]
  @ [
      Test.make ~name:"weave/scale:join-point-enumeration"
        (Staged.stage (fun () ->
             ignore (Weaver.Joinpoint.execution_shadows program)));
    ]

(* ---- E6: repository commit/undo/redo/diff ----------------------------------- *)

let e6_tests =
  let base = synthetic 20 in
  let chain =
    let rec build acc m i =
      if i = 0 then List.rev acc
      else
        let m', _ =
          Mof.Builder.add_class m ~owner:(Mof.Model.root m)
            ~name:(Printf.sprintf "V%d" i)
        in
        build (m' :: acc) m' (i - 1)
    in
    build [] base 20
  in
  let full_repo =
    List.fold_left
      (fun repo m -> Repository.Repo.commit ~message:"step" m repo)
      (Repository.Repo.init base) chain
  in
  [
    Test.make ~name:"repo/history:commit-chain-20"
      (Staged.stage (fun () ->
           ignore
             (List.fold_left
                (fun repo m -> Repository.Repo.commit ~message:"step" m repo)
                (Repository.Repo.init base) chain)));
    Test.make ~name:"repo/history:undo-redo-roundtrip"
      (Staged.stage (fun () ->
           let r = Option.get (Repository.Repo.undo full_repo) in
           let r = Option.get (Repository.Repo.undo r) in
           let r = Option.get (Repository.Repo.redo r) in
           ignore (Option.get (Repository.Repo.redo r))));
    Test.make ~name:"repo/history:diff-ends"
      (Staged.stage (fun () ->
           ignore (Repository.Repo.diff_between full_repo ~from_id:0 ~to_id:20)));
    Test.make ~name:"repo/history:render-log"
      (Staged.stage (fun () -> ignore (Repository.History.render full_repo)));
  ]

(* ---- E7: ablation — cost of pre/postcondition checking ----------------------- *)

let e7_tests =
  List.concat_map
    (fun n ->
      let m = synthetic n in
      let cmt = tx_cmt_for "C0" in
      [
        Test.make
          ~name:(Printf.sprintf "ablation/precheck:with-checks:%d-classes" n)
          (Staged.stage (fun () ->
               match Transform.Engine.apply cmt m with
               | Ok _ -> ()
               | Error f ->
                   failwith (Format.asprintf "%a" Transform.Engine.pp_failure f)));
        Test.make
          ~name:(Printf.sprintf "ablation/precheck:no-checks:%d-classes" n)
          (Staged.stage (fun () ->
               match
                 Transform.Engine.apply ~checks:Transform.Engine.no_checks cmt m
               with
               | Ok _ -> ()
               | Error f ->
                   failwith (Format.asprintf "%a" Transform.Engine.pp_failure f)));
      ])
    [ 10; 50; 100 ]

(* ---- E8: ablation — aspect route vs monolithic generation -------------------- *)

let e8_tests =
  let project = fig2_project () in
  let reconfigured () =
    (* change one concern's parameters: the paper's architecture only
       regenerates that aspect and re-weaves *)
    let p = Option.get (Core.Pipeline.undo project) in
    match
      Core.Pipeline.refine p ~concern:"security"
        ~params:
          [
            ("secured", v_names [ "Teller" ]);
            ( "roles",
              Transform.Params.V_list [ Transform.Params.V_string "auditor" ] );
          ]
    with
    | Ok (p, _) -> p
    | Error e -> failwith (Core.Pipeline.error_to_string e)
  in
  [
    Test.make ~name:"ablation/monolithic:aspect-route-build"
      (Staged.stage (fun () ->
           match Core.Pipeline.build project with
           | Ok a -> ignore a
           | Error e -> failwith (Core.Pipeline.error_to_string e)));
    Test.make ~name:"ablation/monolithic:monolithic-codegen"
      (Staged.stage (fun () -> ignore (Core.Pipeline.monolithic_code project)));
    Test.make ~name:"ablation/monolithic:reconfigure-aspect-route"
      (Staged.stage (fun () ->
           let p = reconfigured () in
           match Core.Pipeline.build p with
           | Ok a -> ignore a
           | Error e -> failwith (Core.Pipeline.error_to_string e)));
    Test.make ~name:"ablation/monolithic:reconfigure-monolithic"
      (Staged.stage (fun () ->
           let p = reconfigured () in
           ignore (Core.Pipeline.monolithic_code p)));
  ]

(* ---- E9: runtime overhead of woven concerns (interpreter) ------------------ *)

let e9_tests =
  let project = fig2_project () in
  let functional = Core.Pipeline.functional_code project in
  let woven =
    match Core.Pipeline.build project with
    | Ok a -> a.Core.Artifacts.woven
    | Error e -> failwith (Core.Pipeline.error_to_string e)
  in
  let deposit program =
    ignore
      (Interp.Machine.run program ~class_name:"Account" ~method_name:"deposit"
         ~args:[ Interp.Rvalue.V_double 10.0 ])
  in
  [
    Test.make ~name:"runtime/overhead:unwoven-deposit"
      (Staged.stage (fun () -> deposit functional));
    Test.make ~name:"runtime/overhead:woven-deposit"
      (Staged.stage (fun () -> deposit woven));
    Test.make ~name:"runtime/overhead:fault-injection-path"
      (Staged.stage (fun () ->
           ignore
             (Interp.Machine.run ~faults:[ ("Account", "getBalance") ] woven
                ~class_name:"Account" ~method_name:"getBalance")));
  ]

(* ---- E10: ablation — composed vs sequential transformation -------------- *)

let e10_tests =
  let m = Fixtures.banking () in
  let tx = Concerns.Transactions.transformation in
  let sec = Concerns.Security.transformation in
  let composite =
    match
      Transform.Compose.sequence ~name:"T.tx-sec" ~concern:"composite"
        [ tx; sec ]
    with
    | Ok gmt -> gmt
    | Error e -> failwith e
  in
  let assignments =
    [
      ("transactional", v_names [ "Account" ]);
      ("secured", v_names [ "Teller" ]);
    ]
  in
  let composite_cmt = Transform.Cmt.specialize_exn composite assignments in
  let tx_cmt =
    Transform.Cmt.specialize_exn tx [ ("transactional", v_names [ "Account" ]) ]
  in
  let sec_cmt =
    Transform.Cmt.specialize_exn sec [ ("secured", v_names [ "Teller" ]) ]
  in
  [
    Test.make ~name:"ablation/compose:composite-apply"
      (Staged.stage (fun () ->
           match Transform.Engine.apply composite_cmt m with
           | Ok _ -> ()
           | Error f ->
               failwith (Format.asprintf "%a" Transform.Engine.pp_failure f)));
    Test.make ~name:"ablation/compose:sequential-apply"
      (Staged.stage (fun () ->
           match Transform.Engine.run m [ tx_cmt; sec_cmt ] with
           | Ok _ -> ()
           | Error (_, f) ->
               failwith (Format.asprintf "%a" Transform.Engine.pp_failure f)));
  ]

(* ---- E11: indexed store — lookup, diff and scoped WF scaling ------------- *)

(* Each synthetic class carries 13 elements (3 attributes, 3 operations with
   parameter and return), so 8/77/769 classes give models of ~10^2, 10^3 and
   10^4 elements. Every pair contrasts the indexed/incremental path the
   engine now takes by default with the full-scan baseline it replaced. *)
let e11_tests =
  List.concat_map
    (fun n ->
      let m = synthetic n in
      let size = Mof.Model.size m in
      let target = Printf.sprintf "C%d" (n - 1) in
      let target_id =
        match Mof.Query.find_class m target with
        | Some e -> e.Mof.Element.id
        | None -> failwith "synthetic target class missing"
      in
      let edited = Mof.Builder.add_stereotype m target_id "touched" in
      let touched =
        Mof.Diff.touched (Mof.Diff.compute ~old_model:m ~new_model:edited)
      in
      [
        Test.make ~name:(Printf.sprintf "store/index:find-class:%d-elements" size)
          (Staged.stage (fun () -> ignore (Mof.Query.find_class m target)));
        Test.make ~name:(Printf.sprintf "store/scan:find-class:%d-elements" size)
          (Staged.stage (fun () ->
               ignore
                 (List.find_opt
                    (fun (e : Mof.Element.t) ->
                      Mof.Element.metaclass e = "Class"
                      && String.equal e.Mof.Element.name target)
                    (Mof.Model.elements m))));
        Test.make ~name:(Printf.sprintf "store/journal:diff:%d-elements" size)
          (Staged.stage (fun () ->
               ignore (Mof.Diff.compute ~old_model:m ~new_model:edited)));
        Test.make ~name:(Printf.sprintf "store/scan:diff:%d-elements" size)
          (Staged.stage (fun () ->
               ignore (Mof.Diff.compute_scan ~old_model:m ~new_model:edited)));
        Test.make
          ~name:(Printf.sprintf "store/scoped:wellformed:%d-elements" size)
          (Staged.stage (fun () ->
               ignore (Mof.Wellformed.check_touched edited ~touched)));
        Test.make ~name:(Printf.sprintf "store/full:wellformed:%d-elements" size)
          (Staged.stage (fun () -> ignore (Mof.Wellformed.check edited)));
      ])
    [ 8; 77; 769 ]

(* ---- E13: the OCL planner against its reference -------------------------- *)

(* The production path ([Constraint_.check]: planner probes) against the
   reference the [ocl] oracle holds it to ([Constraint_.check_naive]: raw
   AST, extent folds). Both evaluate the body [Constraint_.make] parsed
   once. *)
let e13_tests =
  let probe =
    Ocl.Constraint_.make ~name:"probe"
      "Class.allInstances()->exists(c | c.name = 'C0')"
  in
  let walk =
    Ocl.Constraint_.make ~name:"walk"
      "Set{'C0', 'C1'}->forAll(n | Class.allInstances()->exists(c | c.name = n))"
  in
  List.concat_map
    (fun n ->
      let m = synthetic n in
      [
        Test.make
          ~name:(Printf.sprintf "ocl/probe:planned:%d-classes" n)
          (Staged.stage (fun () -> ignore (Ocl.Constraint_.check m probe)));
        Test.make ~name:(Printf.sprintf "ocl/probe:naive:%d-classes" n)
          (Staged.stage (fun () -> ignore (Ocl.Constraint_.check_naive m probe)));
        Test.make ~name:(Printf.sprintf "ocl/walk:planned:%d-classes" n)
          (Staged.stage (fun () -> ignore (Ocl.Constraint_.check m walk)));
        Test.make ~name:(Printf.sprintf "ocl/walk:naive:%d-classes" n)
          (Staged.stage (fun () -> ignore (Ocl.Constraint_.check_naive m walk)));
      ])
    [ 10; 50; 100 ]

(* ---- harness ------------------------------------------------------------- *)

let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()

(* ---- machine-readable snapshot (BENCH_pr9.json) -------------------------- *)

(* One `{experiment, metric, value, unit}` row per measurement, accumulated
   alongside the human-readable table; see EXPERIMENTS.md for the schema. *)
let snapshot : (string * Obs.Metric.row) list ref = ref []

let add_row ~experiment ~metric ~value ~unit_ =
  snapshot := (experiment, { Obs.Metric.metric; value; unit_ }) :: !snapshot

let write_snapshot path =
  let entries = List.rev !snapshot in
  let json =
    "[\n"
    ^ String.concat ",\n"
        (List.map
           (fun (e, r) -> Obs.Metric.row_to_json ~experiment:e r)
           entries)
    ^ "\n]\n"
  in
  Obs.Sink.write_file path json;
  Printf.printf "bench snapshot: %s (%d rows)\n%!" path (List.length entries)

(* BENCH_ONLY=E7,E13 (comma-separated, whitespace-tolerant) reruns selected
   experiments in isolation — used to bound run-to-run variance when
   comparing snapshots. *)
let selected_experiments =
  match Sys.getenv_opt "BENCH_ONLY" with
  | None | Some "" -> None
  | Some s -> (
      match
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun e -> e <> "")
      with
      | [] -> None
      | only -> Some only)

(* Start every experiment group from a collected heap. Allocation-heavy
   groups otherwise inherit the previous groups' deferred major-GC debt
   (floating garbage, not a leak — live heap stays ~15MB across the whole
   run), and the incremental major collector pays it off inside the timed
   region: E16's full-weave rows measured 4x slower in the full run than
   under BENCH_ONLY until the heap was settled here. *)
let settle_gc () = Gc.compact ()

let run_group_timed ~experiment title tests =
  Printf.printf "== %s ==\n%!" title;
  settle_gc ();
  let t0 = Obs.Clock.now_ns () in
  let a0 = Gc.allocated_bytes () in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" tests in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> e
        | Some _ | None -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
      add_row ~experiment ~metric:name ~value:estimate ~unit_:"ns/run";
      Printf.printf "  %-55s %12.1f ns/run   (r2=%.4f)\n%!" name estimate r2)
    rows;
  add_row ~experiment ~metric:"group.wall"
    ~value:(Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)
    ~unit_:"s";
  add_row ~experiment ~metric:"group.alloc"
    ~value:(Gc.allocated_bytes () -. a0)
    ~unit_:"bytes";
  print_newline ()

let run_group ~experiment title tests =
  match selected_experiments with
  | Some only when not (List.mem experiment only) -> ()
  | _ -> run_group_timed ~experiment title tests

(* ---- E14: parallel batch refinement — domain-pool throughput scaling ----- *)

(* Bechamel's per-run OLS is the wrong shape for whole-batch wall time, so
   E14 times [Par.Batch.apply_all] directly: one warmup run then three
   timed runs per (arm, jobs) cell, keeping the fastest. jobs=1 is the
   in-process sequential path (no pool, no domains); wider cells reuse one
   pool per width so pool construction stays out of the measurement. The
   speedup rows are relative to the same arm's jobs-1 cell, and
   host.domains records how many cores the host actually offers — the
   scaling ceiling is min(jobs, cores), so on a single-core host every
   speedup row sits near 1.0 by physics, not by bug. *)
let run_e14 () =
  let experiment = "E14" in
  match selected_experiments with
  | Some only when not (List.mem experiment only) -> ()
  | _ ->
      Printf.printf
        "== E14 parallel batch: domain-pool throughput scaling ==\n%!";
      settle_gc ();
      let t0 = Obs.Clock.now_ns () in
      let a0 = Gc.allocated_bytes () in
      let models = Par.Workload.models ~classes:50 16 in
      let nmodels = float_of_int (List.length models) in
      let cmts = [ tx_cmt_for "C0" ] in
      let arms =
        [ ("checked", None); ("unchecked", Some Transform.Engine.no_checks) ]
      in
      List.iter
        (fun (arm, checks) ->
          let time_batch ?pool () =
            let run () =
              List.iter
                (function
                  | Ok _ -> ()
                  | Error (_, f) ->
                      failwith
                        (Format.asprintf "%a" Transform.Engine.pp_failure f))
                (Par.Batch.apply_all ?pool ?checks ~cmts models)
            in
            run ();
            (* warmup: fill the parse/extent caches of every domain *)
            let best = ref Int64.max_int in
            for _ = 1 to 3 do
              let t = Obs.Clock.now_ns () in
              run ();
              let d = Int64.sub (Obs.Clock.now_ns ()) t in
              if d < !best then best := d
            done;
            Int64.to_float !best
          in
          let base = ref Float.nan in
          List.iter
            (fun jobs ->
              let ns =
                if jobs = 1 then time_batch ()
                else
                  Par.Pool.with_pool ~jobs (fun p -> time_batch ~pool:p ())
              in
              if jobs = 1 then base := ns;
              let throughput = nmodels /. (ns /. 1e9) in
              let speedup = !base /. ns in
              let name = Printf.sprintf "batch/apply:%s:jobs-%d" arm jobs in
              add_row ~experiment ~metric:name ~value:ns ~unit_:"ns/run";
              add_row ~experiment
                ~metric:(Printf.sprintf "batch/throughput:%s:jobs-%d" arm jobs)
                ~value:throughput ~unit_:"models/s";
              add_row ~experiment
                ~metric:(Printf.sprintf "batch/speedup:%s:jobs-%d" arm jobs)
                ~value:speedup ~unit_:"x";
              Printf.printf "  %-55s %12.1f ns/run   (%.1f models/s, %.2fx)\n%!"
                name ns throughput speedup)
            [ 1; 2; 4; 8 ])
        arms;
      add_row ~experiment ~metric:"host.domains"
        ~value:(float_of_int (Domain.recommended_domain_count ()))
        ~unit_:"domains";
      add_row ~experiment ~metric:"group.wall"
        ~value:(Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)
        ~unit_:"s";
      add_row ~experiment ~metric:"group.alloc"
        ~value:(Gc.allocated_bytes () -. a0)
        ~unit_:"bytes";
      print_newline ()

(* ---- E15: content-addressed store vs full-copy at 10k-commit histories --- *)

(* Whole-history builds, timed directly like E14: a bounded ~200-element
   model takes one single-class rename per commit, so the content-addressed
   store grows by roughly one object per commit while the full-copy
   baseline re-pays the whole model at every commit. One warmup build then
   three timed builds per implementation, fastest kept; the size rows come
   from the final build, and the ratio rows are the acceptance criterion
   (the snapshot must be an order of magnitude smaller than the full-copy
   estimate at a 10k-commit history). *)
let run_e15 () =
  let experiment = "E15" in
  match selected_experiments with
  | Some only when not (List.mem experiment only) -> ()
  | _ ->
      Printf.printf
        "== E15 repository: content-addressed store vs full copy ==\n%!";
      settle_gc ();
      let t0 = Obs.Clock.now_ns () in
      let a0 = Gc.allocated_bytes () in
      let commits = 10_000 in
      let base = synthetic 25 in
      let ids =
        Array.of_list (Mof.Id.Set.elements (Mof.Model.by_kind base "Class"))
      in
      let mutate m i =
        let slot = i mod Array.length ids in
        Mof.Builder.rename m ids.(slot) (Printf.sprintf "C%d_v%d" slot i)
      in
      let time_build build =
        ignore (build ());
        let best = ref Int64.max_int in
        let last = ref None in
        for _ = 1 to 3 do
          let t = Obs.Clock.now_ns () in
          let r = build () in
          let d = Int64.sub (Obs.Clock.now_ns ()) t in
          if d < !best then best := d;
          last := Some r
        done;
        (Int64.to_float !best, Option.get !last)
      in
      let build_cas () =
        let rec go repo i =
          if i > commits then repo
          else
            let m = mutate (Repository.Repo.head_model repo) i in
            go (Repository.Repo.commit ~message:"step" m repo) (i + 1)
        in
        go (Repository.Repo.init base) 1
      in
      let build_naive () =
        let rec go repo i =
          if i > commits then repo
          else
            let m = mutate (Repository.Naive.head_model repo) i in
            go (Repository.Naive.commit ~message:"step" m repo) (i + 1)
        in
        go (Repository.Naive.init base) 1
      in
      let row_arm arm ns =
        let per_s = float_of_int commits /. (ns /. 1e9) in
        add_row ~experiment
          ~metric:(Printf.sprintf "repo/build-10k:%s" arm)
          ~value:ns ~unit_:"ns/run";
        add_row ~experiment
          ~metric:(Printf.sprintf "repo/commits:%s" arm)
          ~value:per_s ~unit_:"commits/s";
        Printf.printf "  %-55s %12.1f ns/run   (%.0f commits/s)\n%!"
          (Printf.sprintf "repo/build-10k:%s" arm)
          ns per_s
      in
      let cas_ns, cas = time_build build_cas in
      row_arm "cas" cas_ns;
      let naive_ns, naive = time_build build_naive in
      row_arm "naive" naive_ns;
      let store_bytes = float_of_int (Repository.Repo.store_bytes cas) in
      let snapshot_bytes =
        float_of_int (String.length (Repository.Repo.save cas))
      in
      let naive_bytes =
        float_of_int (Repository.Naive.estimated_bytes naive)
      in
      let size name v =
        add_row ~experiment ~metric:name ~value:v ~unit_:"bytes";
        Printf.printf "  %-55s %12.0f bytes\n%!" name v
      in
      size "repo/store.bytes:cas" store_bytes;
      size "repo/snapshot.bytes:cas" snapshot_bytes;
      size "repo/store.bytes:naive-full-copy" naive_bytes;
      let ratio name v =
        add_row ~experiment ~metric:name ~value:v ~unit_:"x";
        Printf.printf "  %-55s %12.1fx\n%!" name v
      in
      ratio "repo/size-advantage:naive-over-store" (naive_bytes /. store_bytes);
      ratio "repo/size-advantage:naive-over-snapshot"
        (naive_bytes /. snapshot_bytes);
      add_row ~experiment ~metric:"group.wall"
        ~value:(Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)
        ~unit_:"s";
      add_row ~experiment ~metric:"group.alloc"
        ~value:(Gc.allocated_bytes () -. a0)
        ~unit_:"bytes";
      print_newline ()

(* ---- E16: the aspect-major weave and the pointcut deciders ----------------- *)

(* Whole-weave wall time, measured directly like E14/E15 (warmup run, then
   best of three): 8 logging aspects over a 100-class program, then 8
   literal-pointcut aspects over the same program, then each pointcut
   kind's staged decider against the AST walk it is checked against. *)
let run_e16 () =
  let experiment = "E16" in
  match selected_experiments with
  | Some only when not (List.mem experiment only) -> ()
  | _ ->
      Printf.printf
        "== E16 weaver: aspect-major weave and pointcut deciders ==\n%!";
      settle_gc ();
      let t0 = Obs.Clock.now_ns () in
      let a0 = Gc.allocated_bytes () in
      let program = Code.Generator.generate (synthetic 100) in
      let aspects = List.init 8 (fun i -> logging_aspect (i + 1)) in
      let time f =
        ignore (f ());
        let best = ref Int64.max_int in
        for _ = 1 to 3 do
          (* settle before every rep: these allocation-heavy rows otherwise
             time whatever major-GC debt and heap growth the surrounding
             groups left behind, and full-run numbers drift 3-9x above the
             same row under BENCH_ONLY (and above the gate baseline) *)
          settle_gc ();
          let t = Obs.Clock.now_ns () in
          ignore (f ());
          let d = Int64.sub (Obs.Clock.now_ns ()) t in
          if d < !best then best := d
        done;
        Int64.to_float !best
      in
      let row name ns =
        add_row ~experiment ~metric:name ~value:ns ~unit_:"ns/run";
        Printf.printf "  %-55s %12.1f ns/run\n%!" name ns
      in
      row "weave/full:8-aspects-100-classes"
        (time (fun () -> Weaver.Weave.weave aspects program));
      (* literal pointcuts: each aspect advises one method of one class *)
      let literal_aspects =
        List.init 8 (fun i ->
            {
              Aspects.Generator.aspect =
                Aspects.Aspect.make
                  ~name:(Printf.sprintf "L%d" i)
                  ~concern:"bench"
                  ~advices:
                    [
                      Aspects.Advice.make Aspects.Advice.Before
                        (Aspects.Pointcut.execution
                           (Printf.sprintf "C%d" (i * 12))
                           (Printf.sprintf "m%d" (i mod 3)))
                        [ Code.Jstmt.S_comment "probe" ];
                    ]
                  ();
              from_transformation = Printf.sprintf "T.lit#%d" i;
              seq = i + 1;
            })
      in
      row "weave/full:literal-pointcuts"
        (time (fun () -> Weaver.Weave.weave literal_aspects program));
      let ratio name v =
        add_row ~experiment ~metric:name ~value:v ~unit_:"x";
        Printf.printf "  %-55s %12.1fx\n%!" name v
      in
      (* per-pointcut-kind matcher breakdown: one compiled/tree pair per
         kind over the program's full shadow set, so a slowdown in one
         decider specialization can't hide inside an aggregate row *)
      let shadows = Weaver.Joinpoint.all_shadows program in
      let n_shadows = float_of_int (List.length shadows) in
      let kind_rows =
        [
          ("execution", Aspects.Pointcut.execution "C*" "m*");
          ("call", Aspects.Pointcut.call "*" "log");
          ("set", Aspects.Pointcut.set_field "C*" "f");
          ("within", Aspects.Pointcut.within "C1*");
          ( "composite",
            Aspects.Pointcut.And
              ( Aspects.Pointcut.execution "C*" "*",
                Aspects.Pointcut.Not (Aspects.Pointcut.within "C9*") ) );
        ]
      in
      List.iter
        (fun (kind, pc) ->
          let sweeps = 100. in
          (* partial application stages the decider (and the tree
             baseline's no-op staging) once per sweep, like the weaver's
             own per-aspect staging *)
          let sweep matches () =
            for _ = 1 to 100 do
              let d = matches pc in
              List.iter (fun s -> ignore (d s)) shadows
            done
          in
          let dec_ns =
            time (sweep Weaver.Matcher.matches) /. (sweeps *. n_shadows)
          in
          row (Printf.sprintf "match/%s:compiled" kind) dec_ns;
          let tree_ns =
            time (sweep Weaver.Matcher.matches_tree) /. (sweeps *. n_shadows)
          in
          row (Printf.sprintf "match/%s:tree" kind) tree_ns;
          ratio (Printf.sprintf "match/speedup:%s" kind) (tree_ns /. dec_ns))
        kind_rows;
      add_row ~experiment ~metric:"group.wall"
        ~value:(Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)
        ~unit_:"s";
      add_row ~experiment ~metric:"group.alloc"
        ~value:(Gc.allocated_bytes () -. a0)
        ~unit_:"bytes";
      print_newline ()

(* ---- E17: service observability — commit latency and metric overhead ----- *)

(* Two questions about the observability layer itself: what do session
   commit latencies look like through the Obs.Hist quantile lens as writer
   contention grows (jobs 1 vs 4 — all writers share one commit mutex),
   and what does leaving the metric registry on cost against the null-sink
   default. The quantile rows report in plain "ns", deliberately outside
   the regression gate's direction map — tail latencies on shared CI
   runners are too noisy to gate; the per-commit wall rows use "ns/run"
   and are gated. *)
let run_e17 () =
  let experiment = "E17" in
  match selected_experiments with
  | Some only when not (List.mem experiment only) -> ()
  | _ ->
      Printf.printf
        "== E17 service observability: commit latency and overhead ==\n%!";
      settle_gc ();
      let t0 = Obs.Clock.now_ns () in
      let a0 = Gc.allocated_bytes () in
      let base = synthetic 25 in
      let commits = 200 in
      let fail_svc e = failwith (Repository.Service.error_to_string e) in
      let serve ~jobs () =
        let svc = Repository.Service.create (Repository.Repo.init base) in
        let sessions = List.init jobs Fun.id in
        List.iter
          (fun s ->
            match
              Repository.Service.create_branch svc (Printf.sprintf "b%d" s)
            with
            | Ok _ -> ()
            | Error e -> fail_svc e)
          sessions;
        let session s =
          let branch = Printf.sprintf "b%d" s in
          for i = 1 to commits do
            let view = Repository.Service.snapshot svc in
            match Repository.Repo.branch_head view branch with
            | None -> failwith "branch vanished"
            | Some id -> (
                let m =
                  match Repository.Repo.model_at view id with
                  | Some m -> m
                  | None -> failwith "head not stored"
                in
                let m, _ =
                  Mof.Builder.add_class m ~owner:(Mof.Model.root m)
                    ~name:(Printf.sprintf "S%dC%d" s i)
                in
                match
                  Repository.Service.commit svc ~branch ~message:"bench" m
                with
                | Ok _ -> ()
                | Error e -> fail_svc e)
          done
        in
        if jobs > 1 then
          Par.Pool.with_pool ~jobs (fun p ->
              ignore (Par.Pool.map p session sessions))
        else List.iter session sessions
      in
      let commit_hist () =
        List.find_map
          (function
            | (name, _), Obs.Metric.Histogram { hist; _ }
              when String.equal name "repo.session.commit.latency_ns" ->
                Some hist
            | _ -> None)
          (Obs.Metric.dump ())
      in
      (* quantiles per contention level; worker shards merge exactly into
         the submitting domain at pool join, so the histogram covers every
         session's commits *)
      List.iter
        (fun jobs ->
          Obs.Metric.enable ();
          serve ~jobs ();
          (match commit_hist () with
          | None -> failwith "commit latency histogram not recorded"
          | Some h ->
              let s = Obs.Hist.snapshot h in
              let q name v =
                let metric =
                  Printf.sprintf "serve/commit-latency:%s:jobs-%d" name jobs
                in
                add_row ~experiment ~metric ~value:v ~unit_:"ns";
                Printf.printf "  %-55s %12.0f ns\n%!" metric v
              in
              q "p50" s.Obs.Hist.s_p50;
              q "p90" s.Obs.Hist.s_p90;
              q "p99" s.Obs.Hist.s_p99;
              q "max" s.Obs.Hist.s_max);
          Obs.Metric.disable ();
          Obs.Metric.reset ())
        [ 1; 4 ];
      (* metric-registry overhead on the same single-session workload:
         warmup, best of three, per committed model *)
      let time f =
        f ();
        let best = ref Int64.max_int in
        for _ = 1 to 3 do
          settle_gc ();
          let t = Obs.Clock.now_ns () in
          f ();
          let d = Int64.sub (Obs.Clock.now_ns ()) t in
          if d < !best then best := d
        done;
        Int64.to_float !best
      in
      let per_commit ns = ns /. float_of_int commits in
      (* the latency phase above just churned 5x200 commits through domain
         pools; re-settle so the overhead rows don't time its GC debt *)
      settle_gc ();
      let off_ns = per_commit (time (serve ~jobs:1)) in
      Obs.Metric.enable ();
      let on_ns = per_commit (time (serve ~jobs:1)) in
      Obs.Metric.disable ();
      Obs.Metric.reset ();
      let row name v unit_ =
        add_row ~experiment ~metric:name ~value:v ~unit_;
        Printf.printf "  %-55s %12.1f %s\n%!" name v unit_
      in
      row "serve/commit:obs-off" off_ns "ns/run";
      row "serve/commit:obs-metrics" on_ns "ns/run";
      (* informational ratio, not "x": lower is better here and "x" rows
         gate higher-better *)
      row "serve/overhead:metrics-vs-off" (on_ns /. off_ns) "ratio";
      add_row ~experiment ~metric:"group.wall"
        ~value:(Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)
        ~unit_:"s";
      add_row ~experiment ~metric:"group.alloc"
        ~value:(Gc.allocated_bytes () -. a0)
        ~unit_:"bytes";
      print_newline ()

(* Counter totals from one representative instrumented run (the Fig. 2
   pipeline end to end plus an XMI round trip). Collected *after* the timed
   groups, so metric recording never perturbs the measurements above. *)
let collect_counters () =
  Obs.Metric.enable ();
  let project = fig2_project () in
  (match Core.Pipeline.build project with
  | Ok _ -> ()
  | Error e -> failwith (Core.Pipeline.error_to_string e));
  let text = Xmi.Export.to_string (Core.Project.model project) in
  ignore (Xmi.Import.from_string text);
  List.iter
    (fun (r : Obs.Metric.row) ->
      add_row ~experiment:"counters" ~metric:r.Obs.Metric.metric
        ~value:r.Obs.Metric.value ~unit_:r.Obs.Metric.unit_)
    (Obs.Metric.rows ());
  Obs.Metric.disable ();
  Obs.Metric.reset ()

let () =
  print_endline
    "mdweave benchmark harness — experiments E1..E17 (see EXPERIMENTS.md; \
     E12 is the fuzz harness, driven by bin/check_cli)";
  print_newline ();
  run_group ~experiment:"E1"
    "E1  Fig.1: one refinement step (specialize+check+apply+CAC)" e1_tests;
  run_group ~experiment:"E2"
    "E2  Fig.2: three-concern pipeline on the banking PIM" e2_tests;
  run_group ~experiment:"E3"
    "E3  OCL evaluation cost (Section 2 pre/postconditions)" e3_tests;
  run_group ~experiment:"E4" "E4  XMI round-trip (Section 3 interchange)"
    e4_tests;
  run_group ~experiment:"E5" "E5  weaving cost vs number of aspects" e5_tests;
  run_group ~experiment:"E6"
    "E6  repository commit/undo/redo/diff (Section 3)" e6_tests;
  run_group ~experiment:"E7" "E7  ablation: pre/postcondition checking cost"
    e7_tests;
  run_group ~experiment:"E8"
    "E8  ablation: aspect route vs monolithic generation" e8_tests;
  run_group ~experiment:"E9"
    "E9  runtime overhead of woven concerns (interpreted)" e9_tests;
  run_group ~experiment:"E10"
    "E10 ablation: composed vs sequential transformations" e10_tests;
  run_group ~experiment:"E11"
    "E11 indexed store: lookup, diff and scoped WF scaling" e11_tests;
  run_group ~experiment:"E13"
    "E13 OCL planner vs its reference" e13_tests;
  run_e14 ();
  run_e15 ();
  run_e16 ();
  run_e17 ();
  collect_counters ();
  write_snapshot "BENCH_pr9.json"
