type step = {
  concern : string;
  params : (string * Transform.Params.value) list;
}

let step ~concern ~params = { concern; params }

type outcome = (Core.Project.t, Core.Pipeline.error) result

let refine_one ~steps model =
  let project = Core.Project.create model in
  let rec go project = function
    | [] -> Ok project
    | s :: rest -> (
        match Core.Pipeline.refine project ~concern:s.concern ~params:s.params with
        | Ok (project, _report) -> go project rest
        | Error e -> Error e)
  in
  let outcome = go project steps in
  if Obs.Metric.enabled () then begin
    Obs.incr "batch.items" [];
    match outcome with
    | Ok _ -> Obs.incr "batch.ok" []
    | Error _ -> Obs.incr "batch.error" []
  end;
  outcome

let refine_all ?pool ~steps models =
  let jobs = match pool with None -> 1 | Some p -> Pool.jobs p in
  (* Each item is a session (its 1-based batch position) carrying a fresh
     request id, established on whichever domain runs it, so every event
     an item emits can be sliced out of a trace by request or session: the
     par oracle splits a traced batch into items by session. Ids are
     process-wide and allocation order under a pool is racy, which is why
     Event.normalize zeroes them. *)
  let indexed = List.mapi (fun i m -> (i + 1, m)) models in
  let item (session, m) =
    Obs.with_session ~id:session (fun () ->
        Obs.with_request (fun () -> refine_one ~steps m))
  in
  Obs.span ~cat:"par" "batch.run"
    ~args:
      [
        ("kind", Obs.Event.V_string "refine");
        ("items", Obs.Event.V_int (List.length models));
        ("jobs", Obs.Event.V_int jobs);
      ]
  @@ fun () ->
  match pool with
  | None -> List.map item indexed
  | Some p -> Pool.map p item indexed
