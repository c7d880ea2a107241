type failure =
  | Precondition_failed of (string * Ocl.Constraint_.outcome) list
  | Postcondition_failed of (string * Ocl.Constraint_.outcome) list
  | Not_wellformed of Mof.Wellformed.violation list
  | Rewrite_failed of string

let pp_failure ppf = function
  | Precondition_failed outcomes ->
      Format.fprintf ppf "preconditions failed:";
      List.iter
        (fun (name, o) ->
          Format.fprintf ppf " %s (%a)" name Ocl.Constraint_.pp_outcome o)
        outcomes
  | Postcondition_failed outcomes ->
      Format.fprintf ppf "postconditions failed:";
      List.iter
        (fun (name, o) ->
          Format.fprintf ppf " %s (%a)" name Ocl.Constraint_.pp_outcome o)
        outcomes
  | Not_wellformed violations ->
      Format.fprintf ppf "model not well-formed:";
      List.iter
        (fun v -> Format.fprintf ppf " %a" Mof.Wellformed.pp_violation v)
        violations
  | Rewrite_failed msg -> Format.fprintf ppf "rewrite failed: %s" msg

type checks = {
  check_pre : bool;
  check_post : bool;
  check_wf : bool;
}

let all_checks = { check_pre = true; check_post = true; check_wf = true }
let no_checks = { check_pre = false; check_post = false; check_wf = false }

type outcome = {
  model : Mof.Model.t;
  diff : Mof.Diff.t;
  report : Report.t;
}

let failed_conditions model conditions =
  List.filter_map
    (fun (c : Ocl.Constraint_.t) ->
      match Ocl.Constraint_.check model c with
      | Ocl.Constraint_.Holds -> None
      | o -> Some (c.Ocl.Constraint_.name, o))
    conditions

let apply ?(checks = all_checks) cmt model =
  Obs.span ~cat:"transform" "engine.apply"
    ~args:[ ("transformation", Obs.Event.V_string (Cmt.name cmt)) ]
  @@ fun () ->
  let outcome =
    let pre_failures =
      if checks.check_pre then
        Obs.span ~cat:"transform" "engine.pre" @@ fun () ->
        failed_conditions model (Cmt.preconditions cmt)
      else []
    in
    if pre_failures <> [] then Error (Precondition_failed pre_failures)
    else
      match
        Obs.span ~cat:"transform" "engine.rewrite" @@ fun () ->
        Cmt.rewrite cmt model
      with
      | exception Gmt.Rewrite_error msg -> Error (Rewrite_failed msg)
      | new_model -> (
          let post_failures =
            if checks.check_post then
              Obs.span ~cat:"transform" "engine.post" @@ fun () ->
              failed_conditions new_model (Cmt.postconditions cmt)
            else []
          in
          if post_failures <> [] then Error (Postcondition_failed post_failures)
          else
            (* journal-based: O(changes) when the rewrite derived [new_model]
               from [model] (always the case for Builder-written rewrites) *)
            let diff =
              Obs.span ~cat:"transform" "engine.diff" @@ fun () ->
              if Obs.Metric.enabled () then
                (match
                   Mof.Model.touched_since new_model (Mof.Model.watermark model)
                 with
                | Some _ -> Obs.incr "engine.diff.journal" []
                | None -> Obs.incr "engine.diff.scan" []);
              Mof.Diff.compute ~old_model:model ~new_model
            in
            let violations =
              if not checks.check_wf then []
              else
                Obs.span ~cat:"transform" "engine.wf" @@ fun () ->
                let touched = Mof.Diff.touched diff in
                if Obs.Metric.enabled () then begin
                  Obs.incr "engine.wf.scoped" [];
                  Obs.observe ~unit_:"elements" "engine.wf.scoped.touched" []
                    (float_of_int (Mof.Id.Set.cardinal touched))
                end;
                Mof.Wellformed.check_touched new_model ~touched
            in
            match violations with
            | _ :: _ -> Error (Not_wellformed violations)
            | [] ->
                let report = Report.make cmt diff in
                Ok { model = new_model; diff; report })
  in
  (match outcome with
  | Ok _ -> Obs.incr "engine.apply.ok" []
  | Error _ -> Obs.incr "engine.apply.failed" []);
  outcome

type session = {
  initial : Mof.Model.t;
  current : Mof.Model.t;
  trace : Trace.t;
  applied : Cmt.t list;
  reports : Report.t list;
}

let start model =
  { initial = model; current = model; trace = Trace.empty; applied = []; reports = [] }

let step ?checks session cmt =
  match apply ?checks cmt session.current with
  | Error failure -> Error failure
  | Ok { model; diff; report } ->
      Ok
        {
          session with
          current = model;
          trace =
            Trace.record ~transformation:(Cmt.name cmt)
              ~concern:(Cmt.concern cmt) diff session.trace;
          applied = session.applied @ [ cmt ];
          reports = session.reports @ [ report ];
        }

let run ?checks model cmts =
  let rec loop session = function
    | [] -> Ok session
    | cmt :: rest -> (
        match step ?checks session cmt with
        | Ok session -> loop session rest
        | Error failure -> Error (Cmt.name cmt, failure))
  in
  loop (start model) cmts
