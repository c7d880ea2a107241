type t = {
  name : string;
  repo : Repository.Repo.t;
  trace : Transform.Trace.t;
  workflow : Workflow.State.t option;
}

let create ?workflow model =
  let model =
    match Concerns.Level.of_model model with
    | Some _ -> model
    | None -> Concerns.Level.mark Concerns.Level.Pim model
  in
  {
    name = Mof.Model.name model;
    repo = Repository.Repo.init model;
    trace = Transform.Trace.empty;
    workflow;
  }

let model t = Repository.Repo.head_model t.repo

let initial_model t =
  match List.rev (Repository.Repo.log t.repo) with
  | root :: _ ->
      Option.get (Repository.Repo.model_at t.repo root.Repository.Commit.id)
  | [] -> assert false (* the log always holds the head *)

let applied t = Transform.Trace.applied t.trace

(* Every step [Pipeline.refine] recorded was admitted by the progress
   before it, so each advance succeeds. *)
let progress t =
  Option.map
    (fun workflow ->
      List.fold_left
        (fun p cmt ->
          let concern = Transform.Cmt.concern cmt in
          match Workflow.State.advance p ~concern with Ok p -> p | Error _ -> p)
        (Workflow.State.start workflow)
        (applied t))
    t.workflow

let history t = Repository.History.render t.repo
let coloring t = Workflow.Color.demarcate (model t) t.trace
