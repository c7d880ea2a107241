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

let run_batch ?pool ~label f models =
  let jobs = match pool with None -> 1 | Some p -> Pool.jobs p in
  (* Each item is a session (its 1-based batch position) carrying a fresh
     request id, established on whichever domain runs it — so every event
     an item emits can be sliced out of a trace by request or session.
     Ids are process-wide and allocation order under a pool is racy, which
     is why Event.normalize zeroes them: the par oracle stays exact. *)
  let indexed = List.mapi (fun i m -> (i + 1, m)) models in
  let item (session, m) =
    Obs.with_session ~id:session (fun () -> Obs.with_request (fun () -> f m))
  in
  Obs.span ~cat:"par" "batch.run"
    ~args:
      [
        ("kind", Obs.Event.V_string label);
        ("items", Obs.Event.V_int (List.length models));
        ("jobs", Obs.Event.V_int jobs);
      ]
  @@ fun () ->
  match pool with
  | None -> List.map item indexed
  | Some p -> Pool.map p item indexed

let refine_all ?pool ~steps models =
  run_batch ?pool ~label:"refine" (refine_one ~steps) models

(* Traced item: record into a private memory sink with span numbering
   restarted at zero, so the captured stream only depends on what the item
   did — not on which domain ran it or what ran on that domain before.
   The previous sink and span counters are restored either way. *)
let traced f item =
  let snap = Obs.Span.save () in
  let sink, events = Obs.Sink.memory () in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Obs.Span.restore snap)
      (fun () ->
        Obs.with_sink sink (fun () ->
            Obs.Span.reset ();
            f item))
  in
  (outcome, events ())

let refine_all_traced ?pool ~steps models =
  run_batch ?pool ~label:"refine-traced" (traced (refine_one ~steps)) models
