(* The benchmark harness: one experiment per figure/claim of the paper (see
   DESIGN.md Section 3 and EXPERIMENTS.md for the index).

   The paper is a position paper with no measured evaluation, so E1
   regenerates Fig. 1's refinement step as an executable artifact and the
   remaining experiments quantify the Section 3 infrastructure, the aspect
   route against monolithic generation, and the fast paths against the
   references their oracles hold them to. The whole pipeline (Fig. 2, the
   woven run, the repository) is measured end to end by mdbench. Every
   timed row comes from [time_ns]: nanoseconds per call. *)

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

let build_exn project =
  match Core.Pipeline.build project with
  | Ok a -> a
  | Error e -> failwith (Core.Pipeline.error_to_string e)

let engine_exn = function
  | Ok _ -> ()
  | Error f -> failwith (Format.asprintf "%a" Transform.Engine.pp_failure f)

(* ---- the timing loop ----------------------------------------------------- *)

(* Start every timed batch from a collected heap. Allocation-heavy rows
   otherwise inherit the earlier rows' deferred major-GC debt (floating
   garbage, not a leak), and the incremental major collector pays it off
   inside the timed region: E16's full-weave rows once read 4x slower in
   the full run than under BENCH_ONLY until the heap was settled. *)
let settle_gc () = Gc.compact ()

(* Nanoseconds per call of [f]: one warmup call, then k doubled from 1
   until k calls take at least 10 ms, then three batches of k calls, each
   from a settled heap; the fastest batch counts. *)
let time_ns f =
  ignore (f ());
  let batch k =
    let t = Obs.Clock.now_ns () in
    for _ = 1 to k do
      ignore (f ())
    done;
    Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t)
  in
  let rec calibrate k = if batch k >= 1e7 then k else calibrate (2 * k) in
  let k = calibrate 1 in
  let best = ref Float.infinity in
  for _ = 1 to 3 do
    settle_gc ();
    best := Float.min !best (batch k)
  done;
  !best /. float_of_int k

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
  Obs.write_file path json;
  Printf.printf "bench snapshot: %s (%d rows)\n%!" path (List.length entries)

(* BENCH_ONLY=E13,E17 (comma-separated, whitespace-tolerant) reruns selected
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

(* One experiment: skipped unless BENCH_ONLY selects it. [body] sets up its
   inputs and reports through [row metric value unit]; the group's own
   group.wall and group.alloc rows follow. *)
let group ~experiment title body =
  match selected_experiments with
  | Some only when not (List.mem experiment only) -> ()
  | _ ->
      Printf.printf "== %s ==\n%!" title;
      settle_gc ();
      let t0 = Obs.Clock.now_ns () in
      let a0 = Gc.allocated_bytes () in
      body (fun metric value unit_ ->
          add_row ~experiment ~metric ~value ~unit_;
          Printf.printf "  %-55s %14.2f %s\n%!" metric value unit_);
      add_row ~experiment ~metric:"group.wall"
        ~value:(Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)
        ~unit_:"s";
      add_row ~experiment ~metric:"group.alloc"
        ~value:(Gc.allocated_bytes () -. a0)
        ~unit_:"bytes";
      print_newline ()

(* A group whose rows each time one call. *)
let timed tests row =
  List.iter (fun (name, f) -> row name (time_ns f) "ns/run") (tests ())

(* ---- E1: Fig. 1 — one refinement step ----------------------------------- *)

let e1_tests () =
  let step m =
    (* specialize GMT -> CMT, checked apply, generate CAC from the same S *)
    let cmt = tx_cmt_for "C0" in
    engine_exn (Transform.Engine.apply cmt m);
    ignore
      (Aspects.Generator.from_cmt Concerns.Transactions.generic_aspect ~seq:1
         cmt)
  in
  List.map
    (fun n ->
      let m = synthetic n in
      (Printf.sprintf "fig1/refine-step:%d-classes" n, fun () -> step m))
    [ 10; 50; 100; 200 ]

(* ---- E3: OCL precondition evaluation cost -------------------------------- *)

let e3_tests () =
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
        ( Printf.sprintf "ocl/eval:precondition:%d-classes" n,
          fun () -> ignore (Ocl.Constraint_.check m precondition) );
        ( Printf.sprintf "ocl/eval:nested-forall:%d-classes" n,
          fun () -> ignore (Ocl.Constraint_.check m heavy) );
      ])
    [ 10; 50; 100 ]
  @ [
      ( "ocl/eval:parse-only",
        fun () ->
          ignore
            (Ocl.Parser.parse
               "Class.allInstances()->forAll(c | c.attributes->forAll(a | \
                a.lower >= 0))") );
    ]

(* ---- E4: XMI round-trip throughput ---------------------------------------- *)

let e4_tests () =
  List.concat_map
    (fun n ->
      let m = synthetic n in
      let text = Xmi.Export.to_string m in
      [
        ( Printf.sprintf "xmi/roundtrip:export:%d-classes" n,
          fun () -> ignore (Xmi.Export.to_string m) );
        ( Printf.sprintf "xmi/roundtrip:import:%d-classes" n,
          fun () -> ignore (Xmi.Import.from_string text) );
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

let e5_tests () =
  let program = Code.Generator.generate (synthetic 50) in
  List.map
    (fun k ->
      let aspects = List.init k (fun i -> logging_aspect (i + 1)) in
      ( Printf.sprintf "weave/scale:%d-aspects" k,
        fun () -> ignore (Weaver.Weave.weave aspects program) ))
    [ 1; 2; 4; 8 ]
  @ List.map
      (fun n ->
        let program_n = Code.Generator.generate (synthetic n) in
        let aspects = [ logging_aspect 1 ] in
        ( Printf.sprintf "weave/scale:program-size:%d-classes" n,
          fun () -> ignore (Weaver.Weave.weave aspects program_n) ))
      [ 10; 50; 100 ]
  @ [
      ( "weave/scale:join-point-enumeration",
        fun () -> ignore (Weaver.Joinpoint.execution_shadows program) );
    ]

(* ---- E8: ablation — aspect route vs monolithic generation -------------------- *)

let e8_tests () =
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
    ( "ablation/monolithic:aspect-route-build",
      fun () -> ignore (build_exn project) );
    ( "ablation/monolithic:monolithic-codegen",
      fun () -> ignore (Core.Pipeline.monolithic_code project) );
    ( "ablation/monolithic:reconfigure-aspect-route",
      fun () -> ignore (build_exn (reconfigured ())) );
    ( "ablation/monolithic:reconfigure-monolithic",
      fun () -> ignore (Core.Pipeline.monolithic_code (reconfigured ())) );
  ]

(* ---- E10: ablation — composed vs sequential transformation -------------- *)

let e10_tests () =
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
    ( "ablation/compose:composite-apply",
      fun () -> engine_exn (Transform.Engine.apply composite_cmt m) );
    ( "ablation/compose:sequential-apply",
      fun () ->
        engine_exn
          (Result.bind (Transform.Engine.apply tx_cmt m) (fun outcome ->
               Transform.Engine.apply sec_cmt outcome.Transform.Engine.model)) );
  ]

(* ---- E11: indexed store — lookup, diff and scoped WF scaling ------------- *)

(* Each synthetic class carries 13 elements (3 attributes, 3 operations with
   parameter and return), so 8/77/769 classes give models of ~10^2, 10^3 and
   10^4 elements. Every pair contrasts the indexed/incremental path the
   engine takes with the full-scan baseline it replaced. *)
let e11_tests () =
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
        ( Printf.sprintf "store/index:find-class:%d-elements" size,
          fun () -> ignore (Mof.Query.find_class m target) );
        ( Printf.sprintf "store/scan:find-class:%d-elements" size,
          fun () ->
            ignore
              (List.find_opt
                 (fun (e : Mof.Element.t) ->
                   Mof.Element.metaclass e = "Class"
                   && String.equal e.Mof.Element.name target)
                 (Mof.Model.elements m)) );
        ( Printf.sprintf "store/trie:diff:%d-elements" size,
          fun () -> ignore (Mof.Diff.compute ~old_model:m ~new_model:edited) );
        ( Printf.sprintf "store/scan:diff:%d-elements" size,
          fun () ->
            ignore (Mof.Diff.compute_scan ~old_model:m ~new_model:edited) );
        ( Printf.sprintf "store/scoped:wellformed:%d-elements" size,
          fun () -> ignore (Mof.Wellformed.check_touched edited ~touched) );
        ( Printf.sprintf "store/full:wellformed:%d-elements" size,
          fun () -> ignore (Mof.Wellformed.check edited) );
      ])
    [ 8; 77; 769 ]

(* ---- E13: the OCL planner against its reference -------------------------- *)

(* The production path ([Constraint_.check]: planner probes) against the
   reference the [ocl] oracle holds it to ([Constraint_.check_naive]: raw
   AST, extent folds). Both evaluate the body [Constraint_.make] parsed
   once. *)
let e13_tests () =
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
        ( Printf.sprintf "ocl/probe:planned:%d-classes" n,
          fun () -> ignore (Ocl.Constraint_.check m probe) );
        ( Printf.sprintf "ocl/probe:naive:%d-classes" n,
          fun () -> ignore (Ocl.Constraint_.check_naive m probe) );
        ( Printf.sprintf "ocl/walk:planned:%d-classes" n,
          fun () -> ignore (Ocl.Constraint_.check m walk) );
        ( Printf.sprintf "ocl/walk:naive:%d-classes" n,
          fun () -> ignore (Ocl.Constraint_.check_naive m walk) );
      ])
    [ 10; 50; 100 ]

(* ---- E14: parallel batch refinement — domain-pool throughput scaling ----- *)

(* Whole-batch wall time of [Par.Batch.refine_all], the path `mdweave batch`
   and the [par] oracle run: 16 synthetic models, one transactions step.
   jobs=1 is the in-process sequential path (no pool, no domains); wider
   cells reuse one pool per width so pool construction stays out of the
   measurement. The speedup rows are relative to the jobs-1 cell, and
   host.domains records how many cores the host actually offers — the
   scaling ceiling is min(jobs, cores), so on a single-core host every
   speedup row sits near 1.0 by physics, not by bug. *)
let e14 row =
  let models = Par.Workload.models ~classes:50 16 in
  let nmodels = float_of_int (List.length models) in
  let steps =
    [
      Par.Batch.step ~concern:"transactions"
        ~params:[ ("transactional", v_names [ "C0" ]) ];
    ]
  in
  let refine ?pool () =
    List.iter
      (function
        | Ok _ -> () | Error e -> failwith (Core.Pipeline.error_to_string e))
      (Par.Batch.refine_all ?pool ~steps models)
  in
  let base = time_ns (fun () -> refine ()) in
  List.iter
    (fun jobs ->
      let ns =
        if jobs = 1 then base
        else
          Par.Pool.with_pool ~jobs (fun pool -> time_ns (refine ~pool))
      in
      row (Printf.sprintf "batch/refine:jobs-%d" jobs) ns "ns/run";
      row
        (Printf.sprintf "batch/throughput:jobs-%d" jobs)
        (nmodels /. (ns /. 1e9)) "models/s";
      row (Printf.sprintf "batch/speedup:jobs-%d" jobs) (base /. ns) "x")
    [ 1; 2; 4; 8 ];
  row "host.domains"
    (float_of_int (Domain.recommended_domain_count ()))
    "domains"

(* ---- E15: loading a repository history ----------------------------------- *)

(* One snapshot of a repo-edit-shaped 1,000-commit history. [load] builds
   only the head's model; the second row then reads every version, newest
   first, which builds the rest along the parent chain: the cost [load]
   no longer pays, and what a client pays that reads them all. *)
let e15_tests () =
  let module R = Repository.Repo in
  let bytes = R.save (Fixtures.edit_history 1000) in
  let load () = match R.load bytes with Ok r -> r | Error e -> failwith e in
  [
    ("repo/load:1000-commits", fun () -> ignore (load ()));
    ( "repo/load+read-all:1000-commits",
      fun () ->
        let r = load () in
        for id = R.size r - 1 downto 0 do
          ignore (R.model_at r id)
        done );
  ]

(* ---- E16: the aspect-major weave and the pointcut deciders ----------------- *)

(* Whole-weave wall time: 8 logging aspects over a 100-class program, then 8
   literal-pointcut aspects over the same program, then each pointcut kind's
   staged decider against the AST walk it is checked against, per shadow. *)
let e16 row =
  let program = Code.Generator.generate (synthetic 100) in
  let aspects = List.init 8 (fun i -> logging_aspect (i + 1)) in
  row "weave/full:8-aspects-100-classes"
    (time_ns (fun () -> Weaver.Weave.weave aspects program))
    "ns/run";
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
    (time_ns (fun () -> Weaver.Weave.weave literal_aspects program))
    "ns/run";
  (* per-pointcut-kind matcher breakdown: one compiled/tree pair per kind
     over the program's full shadow set, so a slowdown in one decider
     specialization can't hide inside an aggregate row *)
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
      (* partial application stages the decider (and the tree baseline's
         no-op staging) once per sweep, like the weaver's own per-aspect
         staging *)
      let per_shadow matches =
        time_ns (fun () ->
            let d = matches pc in
            List.iter (fun s -> ignore (d s)) shadows)
        /. n_shadows
      in
      let dec_ns = per_shadow Weaver.Matcher.matches in
      row (Printf.sprintf "match/%s:compiled" kind) dec_ns "ns/run";
      let tree_ns = per_shadow Weaver.Matcher.matches_tree in
      row (Printf.sprintf "match/%s:tree" kind) tree_ns "ns/run";
      row (Printf.sprintf "match/speedup:%s" kind) (tree_ns /. dec_ns) "x")
    kind_rows

(* ---- E17: service observability — commit latency and metric overhead ----- *)

(* Two questions about the observability layer itself: what do session
   commit latencies look like through the Obs.Hist quantile lens as writer
   contention grows (jobs 1 vs 4 — all writers share one commit mutex),
   and what does leaving the metric registry on cost against the null-sink
   default. The quantile rows report in plain "ns", deliberately outside
   the regression gate's direction map — tail latencies on shared CI
   runners are too noisy to gate; the per-commit wall rows use "ns/run"
   and are gated. *)
let e17 row =
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
            match Repository.Service.commit svc ~branch ~message:"bench" m with
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
  (* quantiles per contention level; worker shards merge exactly into the
     submitting domain at pool join, so the histogram covers every
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
            row (Printf.sprintf "serve/commit-latency:%s:jobs-%d" name jobs) v "ns"
          in
          q "p50" s.Obs.Hist.s_p50;
          q "p90" s.Obs.Hist.s_p90;
          q "p99" s.Obs.Hist.s_p99;
          q "max" s.Obs.Hist.s_max);
      Obs.Metric.disable ();
      Obs.Metric.reset ())
    [ 1; 4 ];
  (* metric-registry overhead on the same single-session workload: a call
     serves all 200 commits, so each row is the best of three calls, per
     committed model *)
  let per_commit () = time_ns (serve ~jobs:1) /. float_of_int commits in
  let off_ns = per_commit () in
  Obs.Metric.enable ();
  let on_ns = per_commit () in
  Obs.Metric.disable ();
  Obs.Metric.reset ();
  row "serve/commit:obs-off" off_ns "ns/run";
  row "serve/commit:obs-metrics" on_ns "ns/run";
  (* informational ratio, not "x": lower is better here and "x" rows gate
     higher-better *)
  row "serve/overhead:metrics-vs-off" (on_ns /. off_ns) "ratio"

(* Counter totals from one representative instrumented run (the Fig. 2
   pipeline end to end plus an XMI round trip). Collected *after* the timed
   groups, so metric recording never perturbs the measurements above. *)
let collect_counters () =
  Obs.Metric.enable ();
  let project = fig2_project () in
  ignore (build_exn project);
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
     E12 is the fuzz harness, driven by bin/check_cli; E2, E6, E7 and E9 \
     are retired)";
  print_newline ();
  group ~experiment:"E1"
    "E1  Fig.1: one refinement step (specialize+check+apply+CAC)"
    (timed e1_tests);
  group ~experiment:"E3"
    "E3  OCL evaluation cost (Section 2 pre/postconditions)" (timed e3_tests);
  group ~experiment:"E4" "E4  XMI round-trip (Section 3 interchange)"
    (timed e4_tests);
  group ~experiment:"E5" "E5  weaving cost vs number of aspects"
    (timed e5_tests);
  group ~experiment:"E8"
    "E8  ablation: aspect route vs monolithic generation" (timed e8_tests);
  group ~experiment:"E10"
    "E10 ablation: composed vs sequential transformations" (timed e10_tests);
  group ~experiment:"E11"
    "E11 indexed store: lookup, diff and scoped WF scaling" (timed e11_tests);
  group ~experiment:"E13" "E13 OCL planner vs its reference" (timed e13_tests);
  group ~experiment:"E14" "E14 parallel batch: domain-pool throughput scaling"
    e14;
  group ~experiment:"E15" "E15 repository: loading a 1,000-commit history"
    (timed e15_tests);
  group ~experiment:"E16"
    "E16 weaver: aspect-major weave and pointcut deciders" e16;
  group ~experiment:"E17"
    "E17 service observability: commit latency and overhead" e17;
  collect_counters ();
  write_snapshot "BENCH_pr9.json"
