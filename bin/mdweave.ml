(* mdweave — the tool front-end for the concern-oriented refinement
   infrastructure (the CLI realization of the paper's Section 3 wizards).

   Commands:
     sample    write a sample banking PIM as XMI
     info      inspect an XMI model (tree, level, well-formedness)
     concerns  list registered concerns and their parameter wizards
     apply     apply one concern transformation to an XMI model
     check     evaluate an OCL constraint against an XMI model
     codegen   generate code (functional or monolithic) from an XMI model
     build     apply a transformation sequence and emit code + aspects
     batch     refine many independent models concurrently (domain pool)
     stats     summarize a model and its concern spaces
     trace     summarize / slice JSONL traces, or convert one to Chrome
     bench-diff  gate two benchmark snapshots against a tolerance
     workflow  middleware-workflow guidance with interference verdicts
     repo      versioned model repository on a content-addressed snapshot *)

open Cmdliner

let or_die = function
  | Ok v -> v
  | Error msg ->
      flush stdout;
      prerr_endline ("mdweave: " ^ msg);
      exit 1

(* ---- observability plumbing ------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record every event of the run in $(docv) as JSONL, one JSON \
           object per line: $(b,mdweave trace summarize), $(b,slice) and \
           $(b,chrome) read it back. With '-' the trace alone goes to \
           stdout and the command's own output to stderr, so it can be \
           piped; '-' cannot be given to $(b,--metrics) as well")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's counters, gauges and histograms to $(docv) as a \
           Prometheus text exposition; each metric's $(b,# HELP) line names \
           its unit. With '-' the exposition alone goes to stdout and the \
           command's own output to stderr; '-' cannot be given to \
           $(b,--trace) as well")

(* The --trace/--metrics pair as one term, shared by every subcommand that
   takes it: [obs.run f] wraps [f] in {!Obs.with_outputs}. *)
type obs = { run : 'a. (unit -> 'a) -> 'a }

let obs_arg =
  let make trace metrics =
    { run = (fun f -> Obs.with_outputs ?trace ?metrics f) }
  in
  Term.(const make $ trace_arg $ metrics_arg)

(* ---- sample ---------------------------------------------------------- *)

let sample_pim () =
  let m = Mof.Model.create ~name:"banking" in
  let root = Mof.Model.root m in
  let m, acct = Mof.Builder.add_class m ~owner:root ~name:"Account" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:acct ~name:"balance" ~typ:Mof.Kind.Dt_real
  in
  let m, dep = Mof.Builder.add_operation m ~owner:acct ~name:"deposit" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:dep ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  let m, wd = Mof.Builder.add_operation m ~owner:acct ~name:"withdraw" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:wd ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  let m = Mof.Builder.set_result m ~op:wd ~typ:Mof.Kind.Dt_boolean in
  let m, teller = Mof.Builder.add_class m ~owner:root ~name:"Teller" in
  let m, tr = Mof.Builder.add_operation m ~owner:teller ~name:"transfer" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:tr ~name:"from" ~typ:(Mof.Kind.Dt_ref acct)
  in
  let m, _ =
    Mof.Builder.add_parameter m ~op:tr ~name:"target" ~typ:(Mof.Kind.Dt_ref acct)
  in
  let m, _ =
    Mof.Builder.add_parameter m ~op:tr ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  Core.Level.mark Core.Level.Pim m

let sample_cmd =
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run out =
    Xmi.Export.write_file out (sample_pim ());
    Printf.printf "wrote sample banking PIM to %s\n" out
  in
  Cmd.v (Cmd.info "sample" ~doc:"Write a sample banking PIM as XMI")
    Term.(const run $ out)

(* ---- info ------------------------------------------------------------ *)

let info_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    let m = or_die (Xmi.Import.read_file file) in
    Printf.printf "model: %s (%d elements, level %s)\n" (Mof.Model.name m)
      (Mof.Model.size m)
      (match Core.Level.of_model m with
      | Some l -> Core.Level.to_string l
      | None -> "unmarked");
    print_string (Mof.Pp.model_to_string m);
    match Mof.Wellformed.check m with
    | [] -> print_endline "well-formed: yes"
    | violations ->
        print_endline "well-formed: NO";
        List.iter
          (fun v ->
            Format.printf "  %a@." Mof.Wellformed.pp_violation v)
          violations
  in
  Cmd.v (Cmd.info "info" ~doc:"Inspect an XMI model") Term.(const run $ file)

(* ---- concerns -------------------------------------------------------- *)

let concerns_cmd =
  let run () =
    Core.Platform.ensure_registered ();
    List.iter
      (fun (e : Concerns.Registry.entry) ->
        Format.printf "%a@.  %s@.%s@.@." Concerns.Concern.pp
          e.Concerns.Registry.concern
          e.Concerns.Registry.concern.Concerns.Concern.description
          (Workflow.Wizard.render_questions
             e.Concerns.Registry.gmt.Transform.Gmt.formals))
      (Concerns.Registry.all ())
  in
  Cmd.v
    (Cmd.info "concerns"
       ~doc:"List registered concerns and their configuration wizards")
    Term.(const run $ const ())


(* ---- apply ----------------------------------------------------------- *)

let concern_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "c"; "concern" ] ~docv:"CONCERN" ~doc:"Concern key to apply")

let param_args =
  Arg.(
    value & opt_all string []
    & info [ "p"; "param" ] ~docv:"NAME=VALUE"
        ~doc:"Parameter assignment (repeatable); lists are comma-separated")

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path")

let resolve_cmt concern params =
  match Concerns.Registry.find_gmt concern with
  | None -> Error (Printf.sprintf "unknown concern %s" concern)
  | Some gmt -> (
      match
        Workflow.Wizard.parse_assignments gmt.Transform.Gmt.formals params
      with
      | Error e -> Error e
      | Ok assignments -> (
          match Transform.Cmt.specialize gmt assignments with
          | Ok cmt -> Ok (cmt, assignments)
          | Error problems ->
              Error
                (Format.asprintf "%a"
                   (Format.pp_print_list
                      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                      Transform.Params.pp_problem)
                   problems)))

let apply_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file concern params out (obs : obs) =
    Core.Platform.ensure_registered ();
    obs.run @@ fun () ->
    let m = or_die (Xmi.Import.read_file file) in
    let cmt, _ = or_die (resolve_cmt concern params) in
    match Transform.Engine.apply cmt m with
    | Error failure ->
        or_die (Error (Format.asprintf "%a" Transform.Engine.pp_failure failure))
    | Ok outcome ->
        Xmi.Export.write_file out outcome.Transform.Engine.model;
        Printf.printf "%s\n-> %s\n"
          (Transform.Report.summary outcome.Transform.Engine.report)
          out
  in
  Cmd.v
    (Cmd.info "apply" ~doc:"Apply one concern transformation to an XMI model")
    Term.(
      const run $ file $ concern_arg $ param_args $ out_arg $ obs_arg)

(* ---- check ----------------------------------------------------------- *)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let expr =
    Arg.(
      required
      & opt (some string) None
      & info [ "e"; "expr" ] ~docv:"OCL" ~doc:"OCL constraint body")
  in
  let context =
    Arg.(
      value
      & opt (some string) None
      & info [ "context" ] ~docv:"METACLASS"
          ~doc:"Evaluate per instance of this metaclass with self bound")
  in
  let run file expr context =
    let m = or_die (Xmi.Import.read_file file) in
    let c = Ocl.Constraint_.make ?context ~name:"cli" expr in
    let outcome = Ocl.Constraint_.check m c in
    Format.printf "%a@." Ocl.Constraint_.pp_outcome outcome;
    if outcome <> Ocl.Constraint_.Holds then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Evaluate an OCL constraint against an XMI model")
    Term.(const run $ file $ expr $ context)

(* ---- codegen --------------------------------------------------------- *)

let codegen_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let monolithic =
    Arg.(
      value & flag
      & info [ "monolithic" ]
          ~doc:"Include concern-introduced elements (no aspect route)")
  in
  let run file monolithic =
    let m = or_die (Xmi.Import.read_file file) in
    let options =
      if monolithic then
        { Code.Generator.accessors = true; exclude_stereotypes = [] }
      else
        {
          Code.Generator.accessors = true;
          exclude_stereotypes = Core.Pipeline.exclude_stereotypes;
        }
    in
    print_string (Code.Printer.program_to_string (Code.Generator.generate ~options m))
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Generate Java-like code from an XMI model")
    Term.(const run $ file $ monolithic)

(* ---- build ----------------------------------------------------------- *)

let parse_step text =
  match String.index_opt text ':' with
  | None -> Error (Printf.sprintf "step %s: expected CONCERN:PARAMS" text)
  | Some i ->
      let concern = String.trim (String.sub text 0 i) in
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      (* parameters are NAME=V pairs separated by commas at top level; list
         values use | as the item separator to avoid ambiguity *)
      let params =
        List.filter
          (fun s -> not (String.equal s ""))
          (List.map String.trim (String.split_on_char ',' rest))
      in
      let params =
        List.map (String.map (fun c -> if c = '|' then ',' else c)) params
      in
      Ok (concern, params)

let refined_project m steps =
  let project = Core.Project.create m in
  List.fold_left
    (fun project text ->
      let concern, raw_params = or_die (parse_step text) in
      let _, assignments = or_die (resolve_cmt concern raw_params) in
      match Core.Pipeline.refine project ~concern ~params:assignments with
      | Ok (project, report) ->
          print_endline (Transform.Report.summary report);
          project
      | Error e -> or_die (Error (Core.Pipeline.error_to_string e)))
    project steps

let steps_arg =
  Arg.(
    value & opt_all string []
    & info [ "s"; "step" ] ~docv:"CONCERN:NAME=V,NAME=V"
        ~doc:
          "A refinement step: concern key, colon, comma-separated parameter \
           assignments; list items use | as the separator (repeatable, \
           applied in order)")

let build_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let outdir =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Artifact output directory")
  in
  let explain_interference =
    Arg.(
      value & flag
      & info
          [ "explain-interference" ]
          ~doc:
            "Print the critical-pair interference report — every advised \
             join point and, for every aspect pair, whether their weaves \
             provably commute")
  in
  let run file steps outdir explain (obs : obs) =
    Core.Platform.ensure_registered ();
    obs.run @@ fun () ->
    let m = or_die (Xmi.Import.read_file file) in
    let project = refined_project m steps in
    let artifacts =
      or_die
        (Result.map_error Core.Pipeline.error_to_string
           (Core.Pipeline.build project))
    in
    Core.Artifacts.write_to_dir outdir artifacts;
    Xmi.Export.write_file
      (Filename.concat outdir "refined.xmi")
      (Core.Project.model project);
    print_endline (Core.Artifacts.summary artifacts);
    if explain then (
      print_endline "interference analysis:";
      print_endline
        (Weaver.Interference.render (Core.Artifacts.interference artifacts)));
    Printf.printf "artifacts written to %s\n" outdir
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Apply a transformation sequence and emit code, aspects, woven \
             output")
    Term.(
      const run $ file $ steps_arg $ outdir $ explain_interference $ obs_arg)

(* ---- batch ------------------------------------------------------------ *)

let batch_cmd =
  let files = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  let synthetic =
    Arg.(
      value & opt int 0
      & info [ "synthetic" ] ~docv:"N"
          ~doc:
            "Append $(docv) generated models (batch0, batch1, ...) to the \
             batch")
  in
  let classes =
    Arg.(
      value & opt int 20
      & info [ "classes" ] ~docv:"K"
          ~doc:"Classes per generated model (with $(b,--synthetic))")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains refining concurrently; 1 stays in-process with no \
             pool. Results always come back in submission order.")
  in
  let outdir =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Write each refined model as DIR/NAME.xmi")
  in
  let run files synthetic classes jobs steps outdir (obs : obs) =
    Core.Platform.ensure_registered ();
    let failures =
      obs.run @@ fun () ->
      let steps =
        List.map
          (fun text ->
            let concern, raw = or_die (parse_step text) in
            let _, assignments = or_die (resolve_cmt concern raw) in
            Par.Batch.step ~concern ~params:assignments)
          steps
      in
      (* Items keep their submission order throughout; a file that fails to
         read stays in the report as its own error line and the rest of the
         batch still runs. *)
      let items =
        List.map
          (fun f ->
            ( Filename.remove_extension (Filename.basename f),
              Xmi.Import.read_file f ))
          files
        @ List.mapi
            (fun i m -> (Printf.sprintf "batch%d" i, Ok m))
            (Par.Workload.models ~classes synthetic)
      in
      if items = [] then
        or_die (Error "batch: no models (give FILES and/or --synthetic N)");
      let readable =
        List.filter_map (fun (_, r) -> Result.to_option r) items
      in
      let refine pool = Par.Batch.refine_all ?pool ~steps readable in
      let outcomes =
        if jobs > 1 && List.length readable > 1 then
          Par.Pool.with_pool ~jobs (fun p -> refine (Some p))
        else refine None
      in
      (match outdir with
      | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
      | _ -> ());
      let failures = ref 0 in
      let report_ok name project =
        match outdir with
        | Some dir ->
            let path = Filename.concat dir (name ^ ".xmi") in
            Xmi.Export.write_file path (Core.Project.model project);
            Printf.printf "%s: ok -> %s\n" name path
        | None -> Printf.printf "%s: ok\n" name
      in
      let rec walk items outcomes =
        match (items, outcomes) with
        | [], _ -> ()
        | (name, Error msg) :: rest, outcomes ->
            incr failures;
            Printf.printf "%s: ERROR %s\n" name msg;
            walk rest outcomes
        | (name, Ok _) :: rest, outcome :: outcomes ->
            (match outcome with
            | Ok project -> report_ok name project
            | Error e ->
                incr failures;
                Printf.printf "%s: ERROR %s\n" name
                  (Core.Pipeline.error_to_string e));
            walk rest outcomes
        | (_, Ok _) :: _, [] -> assert false
      in
      walk items outcomes;
      Printf.printf "%d/%d ok (jobs=%d)\n"
        (List.length items - !failures)
        (List.length items) jobs;
      !failures
    in
    if failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Refine a batch of independent models concurrently on a domain \
          pool; results are reported in submission order and one failing \
          item never poisons the rest")
    Term.(
      const run $ files $ synthetic $ classes $ jobs $ steps_arg $ outdir
      $ obs_arg)

(* ---- joinpoints -------------------------------------------------------- *)

let joinpoints_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let pointcut =
    Arg.(
      required
      & opt (some string) None
      & info [ "pointcut" ] ~docv:"POINTCUT"
          ~doc:
            "Pointcut expression, e.g. \"execution(Account.set*) && \
             !within(*Proxy)\"")
  in
  let run file steps pointcut_text =
    Core.Platform.ensure_registered ();
    let m = or_die (Xmi.Import.read_file file) in
    let project = refined_project m steps in
    let pc =
      match Aspects.Pointcut_parser.parse pointcut_text with
      | Ok pc -> pc
      | Error e -> or_die (Error e)
    in
    let program = Core.Pipeline.functional_code project in
    let shadows = Weaver.Joinpoint.all_shadows program in
    let matching = List.filter (Weaver.Matcher.matches pc) shadows in
    List.iter
      (fun shadow -> print_endline (Weaver.Joinpoint.describe shadow))
      matching;
    Printf.printf "%d of %d join point(s) match %s\n" (List.length matching)
      (List.length shadows)
      (Aspects.Pointcut.to_string pc)
  in
  Cmd.v
    (Cmd.info "joinpoints"
       ~doc:
         "List the join points (execution, call, field-set) of the \
          generated functional code matching a pointcut")
    Term.(const run $ file $ steps_arg $ pointcut)

(* ---- run ----------------------------------------------------------------- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let class_name =
    Arg.(
      required
      & opt (some string) None
      & info [ "class" ] ~docv:"CLASS" ~doc:"Class to instantiate")
  in
  let method_name =
    Arg.(
      required
      & opt (some string) None
      & info [ "method" ] ~docv:"METHOD" ~doc:"Method to invoke")
  in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"CLASS.METHOD"
          ~doc:"Inject a RuntimeException on entering this method (repeatable)")
  in
  let run file steps class_name method_name fault_specs (obs : obs) =
    Core.Platform.ensure_registered ();
    obs.run @@ fun () ->
    let m = or_die (Xmi.Import.read_file file) in
    let project = refined_project m steps in
    let artifacts =
      or_die
        (Result.map_error Core.Pipeline.error_to_string
           (Core.Pipeline.build project))
    in
    let faults =
      List.map
        (fun spec ->
          match String.index_opt spec '.' with
          | Some i ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
          | None -> or_die (Error (spec ^ ": expected CLASS.METHOD")))
        fault_specs
    in
    let args =
      match
        Interp.Machine.method_params artifacts.Core.Artifacts.woven ~class_name
          ~method_name
      with
      | params ->
          List.map
            (fun (p : Code.Jdecl.param) ->
              Interp.Rvalue.default_of p.Code.Jdecl.param_type)
            params
      | exception Interp.Machine.Runtime_error msg -> or_die (Error msg)
    in
    let outcome =
      Interp.Machine.run ~faults ~args artifacts.Core.Artifacts.woven
        ~class_name ~method_name
    in
    Printf.printf "executing woven %s.%s (%d default argument(s))\n" class_name
      method_name (List.length args);
    List.iter
      (fun e -> Printf.printf "  %s\n" (Interp.Event.to_string e))
      outcome.Interp.Machine.events;
    match outcome.Interp.Machine.result with
    | Ok v -> Printf.printf "-> returned %s\n" (Interp.Rvalue.to_string v)
    | Error cls ->
        Printf.printf "-> threw %s\n" cls;
        exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Interpret a method of the woven program against the recording \
          middleware runtime")
    Term.(
      const run $ file $ steps_arg $ class_name $ method_name $ faults
      $ obs_arg)

(* ---- color ----------------------------------------------------------------- *)

let color_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let html =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE" ~doc:"Also write an HTML demarcation page")
  in
  let run file steps html =
    Core.Platform.ensure_registered ();
    let m = or_die (Xmi.Import.read_file file) in
    let project = refined_project m steps in
    print_endline (Core.Project.coloring project);
    match html with
    | None -> ()
    | Some path ->
        Obs.write_file path
          (Workflow.Color.demarcate_html (Core.Project.model project)
             (Core.Project.trace project));
        Printf.printf "HTML demarcation written to %s\n" path
  in
  Cmd.v
    (Cmd.info "color"
       ~doc:
         "Demarcate the concern spaces of a refined model by color (text, \
          optionally HTML)")
    Term.(const run $ file $ steps_arg $ html)

(* ---- ship / replay -------------------------------------------------------- *)

let ship_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let outdir =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Package output directory")
  in
  let run file steps outdir =
    Core.Platform.ensure_registered ();
    let m = or_die (Xmi.Import.read_file file) in
    let project = refined_project m steps in
    (match Core.Shipping.ship ~dir:outdir project with
    | Ok () -> ()
    | Error e -> or_die (Error e));
    Printf.printf "shipped %d step(s) to %s\n"
      (List.length (Core.Project.applied project))
      outdir
  in
  Cmd.v
    (Cmd.info "ship"
       ~doc:
         "Package a refinement: every intermediate model plus a replayable \
          manifest of concerns and parameter sets")
    Term.(const run $ file $ steps_arg $ outdir)

let replay_cmd =
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let run dir =
    match Core.Shipping.verify ~dir with
    | Ok true -> print_endline "replay verified: final model reproduced"
    | Ok false ->
        print_endline "replay DIVERGED from the shipped final model";
        exit 1
    | Error e -> or_die (Error e)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a shipped refinement package and verify the final model")
    Term.(const run $ dir)

(* ---- stats ------------------------------------------------------------ *)

let stats_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file steps =
    Core.Platform.ensure_registered ();
    let m = or_die (Xmi.Import.read_file file) in
    let project = refined_project m steps in
    let model = Core.Project.model project in
    let count f = List.length (f model) in
    Printf.printf "model: %s (%s)\n" (Mof.Model.name model)
      (match Core.Level.of_model model with
      | Some l -> Core.Level.to_string l
      | None -> "unmarked");
    Printf.printf "elements: %d total\n" (Mof.Model.size model);
    Printf.printf
      "  %d package(s), %d class(es), %d interface(s), %d enumeration(s)\n"
      (count Mof.Query.packages) (count Mof.Query.classes)
      (count Mof.Query.interfaces)
      (count Mof.Query.enumerations);
    Printf.printf "  %d association(s), %d constraint(s)\n"
      (count Mof.Query.associations)
      (count Mof.Query.constraints);
    let trace = Core.Project.trace project in
    let concerns = Transform.Trace.concerns_applied trace in
    Printf.printf "concerns applied: %s\n"
      (if concerns = [] then "none" else String.concat ", " concerns);
    List.iter
      (fun concern ->
        Printf.printf "  %-14s %d element(s) in its concern space\n" concern
          (Mof.Id.Set.cardinal (Transform.Trace.concern_space trace ~concern)))
      concerns
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Summarize a model (after any $(b,-s) steps): element counts by \
          kind and the size of each applied concern's space")
    Term.(const run $ file $ steps_arg)

(* ---- trace ------------------------------------------------------------ *)

let read_text path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> or_die (Error msg)
  | text -> text

let read_trace path = or_die (Obs.Trace.parse (read_text path))

let trace_file_pos =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.jsonl")

let trace_summarize_cmd =
  let run file = print_string (Obs.Trace.summarize (read_trace file)) in
  Cmd.v
    (Cmd.info "summarize"
       ~doc:
         "Roll a JSONL trace up: per-category wall/alloc totals and the \
          critical path of the 20 heaviest requests by wall")
    Term.(const run $ trace_file_pos)

let trace_slice_cmd =
  let request =
    Arg.(
      value
      & opt (some int) None
      & info [ "request" ] ~docv:"ID" ~doc:"Keep events of this request only")
  in
  let session =
    Arg.(
      value
      & opt (some int) None
      & info [ "session" ] ~docv:"ID" ~doc:"Keep events of this session only")
  in
  let run file req sess =
    if req = None && sess = None then
      or_die (Error "trace slice: give --request and/or --session");
    print_string
      (Obs.Trace.to_jsonl (Obs.Trace.slice ?req ?sess (read_trace file)))
  in
  Cmd.v
    (Cmd.info "slice"
       ~doc:
         "Filter a JSONL trace down to one request or session; output is \
          again JSONL")
    Term.(const run $ trace_file_pos $ request $ session)

let trace_chrome_cmd =
  let run file = print_string (Obs.Trace.to_chrome (read_trace file)) in
  Cmd.v
    (Cmd.info "chrome"
       ~doc:
         "Convert a JSONL trace to the Chrome trace-event format on stdout \
          (open it in chrome://tracing or https://ui.perfetto.dev)")
    Term.(const run $ trace_file_pos)

let trace_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "trace")))) in
  Cmd.group ~default
    (Cmd.info "trace"
       ~doc:
         "Analyze JSONL traces recorded with --trace FILE: summarize or \
          slice per request/session, or convert to Chrome's format")
    [ trace_summarize_cmd; trace_slice_cmd; trace_chrome_cmd ]

(* ---- bench-diff -------------------------------------------------------- *)

let bench_diff_cmd =
  let old_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_pos =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  let tolerance =
    Arg.(
      value & opt float 10.
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Relative drift accepted on gated rows before a row counts as \
             regressed (percent)")
  in
  let run old_file new_file tolerance =
    let olds = or_die (Obs.Regress.parse (read_text old_file)) in
    let news = or_die (Obs.Regress.parse (read_text new_file)) in
    let entries = Obs.Regress.compare_snapshots ~tolerance olds news in
    print_string (Obs.Regress.render ~tolerance entries);
    exit (Obs.Regress.gate entries)
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two benchmark snapshots; exit 1 when any timed or \
          throughput row regressed beyond the tolerance (counters and \
          resource rows are informational)")
    Term.(const run $ old_pos $ new_pos $ tolerance)

(* ---- workflow ---------------------------------------------------------- *)

let workflow_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file steps =
    Core.Platform.ensure_registered ();
    let m = or_die (Xmi.Import.read_file file) in
    let project = refined_project m steps in
    (* replay the applied concerns through the middleware workflow *)
    let progress =
      List.fold_left
        (fun p concern ->
          match Workflow.State.advance p ~concern with
          | Ok p -> p
          | Error msg ->
              Printf.printf "  note: %s\n" msg;
              p)
        (Workflow.State.start Workflow.State.middleware_default)
        (Transform.Trace.concerns_applied (Core.Project.trace project))
    in
    print_endline (Workflow.Guidance.describe progress);
    (* and say where the order the workflow fixes actually matters *)
    let artifacts =
      or_die
        (Result.map_error Core.Pipeline.error_to_string
           (Core.Pipeline.build project))
    in
    let report = Core.Artifacts.interference artifacts in
    print_endline
      (Workflow.Guidance.interference_brief
         (List.map
            (fun (p : Weaver.Interference.pair) ->
              {
                Workflow.Guidance.pair_left = p.Weaver.Interference.left;
                pair_right = p.Weaver.Interference.right;
                pair_conflict =
                  (match p.Weaver.Interference.verdict with
                  | Weaver.Interference.Independent -> None
                  | Weaver.Interference.Conflicting { reason; _ } ->
                      Some reason);
              })
            report.Weaver.Interference.pairs))
  in
  Cmd.v
    (Cmd.info "workflow"
       ~doc:
         "Show middleware-workflow guidance for a refinement in progress: \
          completed steps, admissible next concerns, and which concern \
          orderings are load-bearing per the interference analysis")
    Term.(const run $ file $ steps_arg)

(* ---- repo ------------------------------------------------------------ *)

(* The repository front-end: a .mdr file is the binary snapshot of a
   content-addressed model repository (Repository.Repo.save/load). Every
   command loads the snapshot, operates, and writes it back, so the file
   is the durable store and the CLI is a session against it. *)

let read_repo path =
  match
    In_channel.with_open_bin path In_channel.input_all
  with
  | exception Sys_error msg -> Error msg
  | data -> Repository.Repo.load data

(* rendered before the store is touched *)
let write_repo path repo = Obs.write_file path (Repository.Repo.save repo)

let store_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE.mdr")

let repo_stats repo =
  Printf.sprintf "%d commit(s), %d object(s), %d byte(s) in store"
    (Repository.Repo.size repo)
    (Repository.Repo.store_objects repo)
    (Repository.Repo.store_bytes repo)

let repo_init_cmd =
  let model = Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL") in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"STORE.mdr" ~doc:"Snapshot path to create")
  in
  let branch =
    Arg.(
      value & opt string "main"
      & info [ "branch" ] ~docv:"NAME" ~doc:"Initial branch name")
  in
  let run model out branch =
    let m = or_die (Xmi.Import.read_file model) in
    let repo = Repository.Repo.init ~branch m in
    write_repo out repo;
    Printf.printf "initialized %s: %s\n" out (repo_stats repo)
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a repository snapshot from an XMI model")
    Term.(const run $ model $ out $ branch)

let repo_commit_cmd =
  let model = Arg.(required & pos 1 (some file) None & info [] ~docv:"MODEL") in
  let message =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "message" ] ~docv:"MSG" ~doc:"Commit message")
  in
  let branch =
    Arg.(
      value
      & opt (some string) None
      & info [ "branch" ] ~docv:"NAME"
          ~doc:"Commit on this branch instead of the current head")
  in
  let concern =
    Arg.(
      value
      & opt (some string) None
      & info [ "concern" ] ~docv:"KEY" ~doc:"Concern to record on the commit")
  in
  let run store model message branch concern (obs : obs) =
    obs.run @@ fun () ->
    let repo = or_die (read_repo store) in
    let m = or_die (Xmi.Import.read_file model) in
    let repo =
      match branch with
      | None -> Repository.Repo.commit ?concern ~message m repo
      | Some branch ->
          or_die
            (Result.map_error Repository.Repo.checkout_error_to_string
               (Repository.Repo.commit_on ~branch ?concern ~message m repo))
    in
    write_repo store repo;
    Printf.printf "[%s] %s\n"
      (Repository.Repo.branch repo)
      (Repository.Commit.summary (Repository.Repo.head repo))
  in
  Cmd.v
    (Cmd.info "commit" ~doc:"Commit an XMI model as a new version")
    Term.(
      const run $ store_pos $ model $ message $ branch $ concern $ obs_arg)

let repo_log_cmd =
  let run store =
    let repo = or_die (read_repo store) in
    print_endline (Repository.History.render repo)
  in
  Cmd.v
    (Cmd.info "log" ~doc:"Show the head-first commit chain with tags")
    Term.(const run $ store_pos)

let repo_tag_cmd =
  let tag_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME")
  in
  let run store name =
    let repo = or_die (read_repo store) in
    let repo = Repository.Repo.tag name repo in
    write_repo store repo;
    Printf.printf "tagged #%d as %s\n"
      (Repository.Repo.head repo).Repository.Commit.id name
  in
  Cmd.v
    (Cmd.info "tag" ~doc:"Name the head commit")
    Term.(const run $ store_pos $ tag_arg)

let repo_checkout_cmd =
  let tag_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TAG")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also export the checked-out model as XMI")
  in
  let run store name out =
    let repo = or_die (read_repo store) in
    let repo =
      or_die
        (Result.map_error Repository.Repo.checkout_error_to_string
           (Repository.Repo.checkout name repo))
    in
    write_repo store repo;
    Printf.printf "checked out %s at #%d\n" name
      (Repository.Repo.head repo).Repository.Commit.id;
    match out with
    | None -> ()
    | Some path ->
        Xmi.Export.write_file path (Repository.Repo.head_model repo);
        Printf.printf "-> %s\n" path
  in
  Cmd.v
    (Cmd.info "checkout" ~doc:"Move the head to a tagged commit")
    Term.(const run $ store_pos $ tag_arg $ out)

let repo_save_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Destination snapshot path")
  in
  let run store out =
    let data =
      match In_channel.with_open_bin store In_channel.input_all with
      | exception Sys_error msg -> or_die (Error msg)
      | data -> data
    in
    let repo = or_die (Repository.Repo.load data) in
    let rendered = Repository.Repo.save repo in
    if not (String.equal rendered data) then
      or_die (Error "snapshot is not canonical: save after load differs");
    Obs.write_file out rendered;
    Printf.printf "verified byte fixpoint, wrote %s (%d bytes)\n" out
      (String.length rendered)
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Re-render a snapshot, verifying the save/load byte fixpoint")
    Term.(const run $ store_pos $ out)

let repo_load_cmd =
  let run store =
    let repo = or_die (read_repo store) in
    let head = Repository.Repo.head repo in
    Printf.printf "head: #%d on %s\n" head.Repository.Commit.id
      (Repository.Repo.branch repo);
    Printf.printf "%s\n" (repo_stats repo);
    List.iter
      (fun (name, id) -> Printf.printf "branch %s -> #%d\n" name id)
      (Repository.Repo.branches repo);
    List.iter
      (fun (name, id) -> Printf.printf "tag %s -> #%d\n" name id)
      (Repository.Repo.tags repo)
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load a snapshot and summarize its contents")
    Term.(const run $ store_pos)

let repo_serve_cmd =
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Concurrent session domains")
  in
  let commits =
    Arg.(
      value & opt int 3
      & info [ "commits" ] ~docv:"K" ~doc:"Commits per session")
  in
  let run store jobs commits (obs : obs) =
    obs.run @@ fun () ->
    let repo = or_die (read_repo store) in
    let svc = Repository.Service.create repo in
    let sessions = List.init (max 1 jobs) Fun.id in
    (* branches first: create_branch points at the moving head *)
    List.iter
      (fun s ->
        match
          Repository.Service.create_branch svc (Printf.sprintf "sess%d" s)
        with
        | Ok _ -> ()
        | Error e -> or_die (Error (Repository.Service.error_to_string e)))
      sessions;
    (* Each session is a numbered Obs session; every snapshot+commit round
       trip is one request, so the trace slices per session (branch) or per
       request (round trip). *)
    let session s =
      let branch = Printf.sprintf "sess%d" s in
      let rec go i =
        if i > commits then Ok ()
        else
          let round () =
            let view = Repository.Service.snapshot svc in
            match Repository.Repo.branch_head view branch with
            | None -> Error (branch ^ " vanished")
            | Some head_id -> (
                match Repository.Repo.model_at view head_id with
                | None -> Error (branch ^ " head not stored")
                | Some base -> (
                    let m, _ =
                      Mof.Builder.add_class base ~owner:(Mof.Model.root base)
                        ~name:(Printf.sprintf "S%dC%d" s i)
                    in
                    match
                      Repository.Service.commit svc ~branch
                        ~message:(Printf.sprintf "session %d commit %d" s i)
                        m
                    with
                    | Ok _ -> Ok ()
                    | Error e -> Error (Repository.Service.error_to_string e)))
          in
          match Obs.with_request round with
          | Ok () -> go (i + 1)
          | Error _ as e -> e
      in
      Obs.with_session ~id:(s + 1) (fun () -> go 1)
    in
    Par.Pool.with_pool ~jobs (fun pool -> Par.Pool.map pool session sessions)
    |> List.iter (function Ok () -> () | Error msg -> or_die (Error msg));
    let final = Repository.Service.snapshot svc in
    write_repo store final;
    List.iter
      (fun s ->
        let branch = Printf.sprintf "sess%d" s in
        match Repository.Repo.branch_head final branch with
        | None -> ()
        | Some id ->
            let elements =
              match Repository.Repo.model_at final id with
              | Some m -> Mof.Model.size m
              | None -> 0
            in
            Printf.printf "branch %s: %d commit(s), head model %d element(s)\n"
              branch commits elements)
      sessions;
    Printf.printf "served %d session(s): %s\n" (List.length sessions)
      (repo_stats final)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run concurrent sessions against the repository: each commits on \
          its own branch through the session service; $(b,--metrics) \
          writes the run's latency histograms as a Prometheus exposition")
    Term.(
      const run $ store_pos $ jobs $ commits $ obs_arg)

let repo_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "repo")))) in
  Cmd.group ~default
    (Cmd.info "repo"
       ~doc:
         "Versioned model repository: content-addressed snapshots, tags, \
          branches, concurrent sessions")
    [
      repo_init_cmd;
      repo_commit_cmd;
      repo_log_cmd;
      repo_tag_cmd;
      repo_checkout_cmd;
      repo_save_cmd;
      repo_load_cmd;
      repo_serve_cmd;
    ]

(* ---- main ------------------------------------------------------------ *)

(* An output path that cannot be written raises a [Sys_error] naming it,
   from [Obs.write_file] (or, for --trace/--metrics, before the run from
   [Obs.with_outputs]); it is reported here, once, the way an unreadable
   input is. Any other exception is a bug and keeps Cmdliner's
   internal-error exit. *)
let () =
  let doc = "generic concern-oriented model transformations meet AOP" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  match
    Cmd.eval ~catch:false
      (Cmd.group ~default
         (Cmd.info "mdweave" ~version:"1.0.0" ~doc)
         [
           sample_cmd;
           info_cmd;
           concerns_cmd;
           apply_cmd;
           check_cmd;
           codegen_cmd;
           build_cmd;
           batch_cmd;
           joinpoints_cmd;
           run_cmd;
           ship_cmd;
           replay_cmd;
           color_cmd;
           stats_cmd;
           trace_cmd;
           bench_diff_cmd;
           workflow_cmd;
           repo_cmd;
         ])
  with
  | code -> exit code
  | exception Sys_error msg -> or_die (Error msg)
  | exception e ->
      prerr_endline
        ("mdweave: internal error, uncaught exception:\n"
        ^ Printexc.to_string e);
      exit Cmd.Exit.internal_error
