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

type outcome = { model : Mof.Model.t; diff : Mof.Diff.t }

let failed_conditions ~env model conditions =
  List.filter_map
    (fun (c : Ocl.Constraint_.t) ->
      match Ocl.Constraint_.check ~env model c with
      | Ocl.Constraint_.Holds -> None
      | o -> Some (c.Ocl.Constraint_.name, o))
    conditions

let apply cmt model =
  (* the concrete name renders every parameter value: only a recorded span
     pays for it *)
  Obs.span ~cat:"transform" "engine.apply"
    ~args:
      (if Obs.enabled () then
         [ ("transformation", Obs.Event.V_string (Cmt.name cmt)) ]
       else [])
  @@ fun () ->
  let env = Cmt.env cmt in
  let outcome =
    let pre_failures =
      Obs.span ~cat:"transform" "engine.pre" @@ fun () ->
      failed_conditions ~env model cmt.Cmt.gmt.Gmt.preconditions
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
            Obs.span ~cat:"transform" "engine.post" @@ fun () ->
            failed_conditions ~env new_model cmt.Cmt.gmt.Gmt.postconditions
          in
          if post_failures <> [] then Error (Postcondition_failed post_failures)
          else
            let diff =
              Obs.span ~cat:"transform" "engine.diff" @@ fun () ->
              Mof.Diff.compute ~old_model:model ~new_model
            in
            let violations =
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
                if Obs.enabled () then begin
                  let count ids = Obs.Event.V_int (Mof.Id.Set.cardinal ids) in
                  Obs.event ~cat:"transform" "report.make"
                    ~args:
                      [
                        ("transformation", Obs.Event.V_string (Cmt.name cmt));
                        ("concern", Obs.Event.V_string (Cmt.concern cmt));
                        ("added", count diff.Mof.Diff.added);
                        ("removed", count diff.Mof.Diff.removed);
                        ("modified", count diff.Mof.Diff.modified);
                      ]
                end;
                Ok { model = new_model; diff })
  in
  (match outcome with
  | Ok _ -> Obs.incr "engine.apply.ok" []
  | Error _ -> Obs.incr "engine.apply.failed" []);
  outcome
