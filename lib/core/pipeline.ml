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
          let admitted =
            match Project.progress project with
            | None -> Ok ()
            | Some p -> (
                match Workflow.State.advance p ~concern with
                | Ok _ -> Ok ()
                | Error reason -> Error (Workflow_violation { concern; reason }))
          in
          match admitted with
          | Error e -> Error e
          | Ok () -> (
              match Transform.Engine.apply cmt (Project.model project) with
              | Error failure ->
                  Error
                    (Engine_failure
                       { transformation = Transform.Cmt.name cmt; failure })
              | Ok { Transform.Engine.model; diff } ->
                  let entry = { Transform.Trace.cmt; diff } in
                  let trace =
                    Transform.Trace.record entry project.Project.trace
                  in
                  let name = Transform.Cmt.name cmt in
                  let repo =
                    Repository.Repo.commit ~transformation:name ~concern
                      ~message:("apply " ^ name) model project.Project.repo
                  in
                  Ok ({ project with Project.repo; trace }, entry))))

let undo project =
  Option.map
    (fun repo ->
      {
        project with
        Project.repo;
        trace = Transform.Trace.drop_last project.Project.trace;
      })
    (Repository.Repo.undo project.Project.repo)

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
