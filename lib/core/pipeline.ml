type error =
  | Unknown_concern of string
  | Invalid_params of {
      transformation : string;
      problems : Transform.Params.problem list;
    }
  | Workflow_violation of { concern : string; reason : string }
  | Engine_failure of {
      transformation : string;
      failure : Transform.Engine.failure;
    }
  | Aspect_generation of string

let pp_error ppf = function
  | Unknown_concern c -> Format.fprintf ppf "unknown concern %s" c
  | Invalid_params { transformation; problems } ->
      Format.fprintf ppf "%s: %a" transformation
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Transform.Params.pp_problem)
        problems
  | Workflow_violation { concern = _; reason } ->
      Format.pp_print_string ppf reason
  | Engine_failure { transformation; failure } ->
      Format.fprintf ppf "%s: %a" transformation Transform.Engine.pp_failure
        failure
  | Aspect_generation msg -> Format.pp_print_string ppf msg

let error_to_string e = Format.asprintf "%a" pp_error e

let refine project ~concern ~params =
  Obs.span ~cat:"pipeline" "pipeline.refine"
    ~args:[ ("concern", Obs.Event.V_string concern) ]
  @@ fun () ->
  match Concerns.Registry.find_gmt concern with
  | None -> Error (Unknown_concern concern)
  | Some gmt -> (
      match Transform.Cmt.specialize gmt params with
      | Error problems ->
          Error
            (Invalid_params { transformation = gmt.Transform.Gmt.name; problems })
      | Ok cmt -> (
          let progress_result =
            match project.Project.progress with
            | None -> Ok None
            | Some p -> (
                match Workflow.State.advance p ~concern with
                | Ok p -> Ok (Some p)
                | Error reason -> Error (Workflow_violation { concern; reason }))
          in
          match progress_result with
          | Error e -> Error e
          | Ok progress -> (
              match Transform.Engine.step project.Project.session cmt with
              | Error failure ->
                  Error
                    (Engine_failure
                       { transformation = Transform.Cmt.name cmt; failure })
              | Ok session ->
                  let report =
                    match List.rev session.Transform.Engine.reports with
                    | r :: _ -> r
                    | [] -> assert false
                  in
                  let repo =
                    Repository.Repo.commit
                      ~transformation:(Transform.Cmt.name cmt)
                      ~concern
                      ~message:("apply " ^ Transform.Cmt.name cmt)
                      session.Transform.Engine.current project.Project.repo
                  in
                  Ok ({ project with Project.session; repo; progress }, report))))

let undo project =
  match List.rev project.Project.session.Transform.Engine.applied with
  | [] -> None
  | _last :: earlier_rev ->
      let remaining = List.rev earlier_rev in
      (match Repository.Repo.undo project.Project.repo with
      | None -> None
      | Some repo ->
          let session =
            {
              project.Project.session with
              Transform.Engine.current = Repository.Repo.head_model repo;
              trace =
                Transform.Trace.drop_last
                  project.Project.session.Transform.Engine.trace;
              applied = remaining;
              reports =
                (match List.rev project.Project.session.Transform.Engine.reports with
                | [] -> []
                | _ :: rest -> List.rev rest);
            }
          in
          let progress =
            (* replay the remaining concern sequence over a fresh progress *)
            match project.Project.progress with
            | None -> None
            | Some p ->
                let fresh = Workflow.State.start (Workflow.State.definition p) in
                Some
                  (List.fold_left
                     (fun acc cmt ->
                       match
                         Workflow.State.advance acc
                           ~concern:(Transform.Cmt.concern cmt)
                       with
                       | Ok acc -> acc
                       | Error _ -> acc)
                     fresh remaining)
          in
          Some { project with Project.session; repo; progress })

let redo_info project =
  match Repository.Repo.redo project.Project.repo with
  | None -> None
  | Some repo -> Some (Repository.Repo.head repo).Repository.Commit.message

let exclude_stereotypes = [ "infrastructure"; "proxy"; "remote-interface" ]

let functional_code project =
  Obs.span ~cat:"pipeline" "pipeline.codegen"
    ~args:[ ("mode", Obs.Event.V_string "functional") ]
  @@ fun () ->
  Code.Generator.generate
    ~options:{ Code.Generator.accessors = true; exclude_stereotypes }
    (Project.model project)

let monolithic_code project =
  Obs.span ~cat:"pipeline" "pipeline.codegen"
    ~args:[ ("mode", Obs.Event.V_string "monolithic") ]
  @@ fun () ->
  Code.Generator.generate
    ~options:{ Code.Generator.accessors = true; exclude_stereotypes = [] }
    (Project.model project)

let aspects project =
  Obs.span ~cat:"pipeline" "pipeline.aspects" @@ fun () ->
  match
    Aspects.Generator.from_trace ~lookup:Concerns.Registry.find_gac
      (Project.applied project)
  with
  | Ok generated ->
      Obs.incr "pipeline.aspects.generated" []
        ~by:(float_of_int (List.length generated));
      Ok generated
  | Error msg -> Error (Aspect_generation msg)

let build project =
  Obs.span ~cat:"pipeline" "pipeline.build" @@ fun () ->
  match aspects project with
  | Error e -> Error e
  | Ok generated ->
      let functional = functional_code project in
      let { Weaver.Weave.program = woven; applications } =
        Weaver.Weave.weave generated functional
      in
      Ok
        {
          Artifacts.functional;
          generated_aspects = generated;
          woven;
          applications;
        }
