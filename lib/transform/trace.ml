type entry = {
  seq : int;
  transformation : string;
  concern : string;
  diff : Mof.Diff.t;
}

type t = entry list (* reversed: most recent first *)

let empty = []
let entries t = List.rev t
let length = List.length

(* Shared telemetry rendering of a diff — the one place its counts become
   event arguments (Report reuses it, so Trace/Report/obs stay one path). *)
let diff_args (diff : Mof.Diff.t) =
  [
    ("added", Obs.Event.V_int (Mof.Id.Set.cardinal diff.Mof.Diff.added));
    ("removed", Obs.Event.V_int (Mof.Id.Set.cardinal diff.Mof.Diff.removed));
    ("modified", Obs.Event.V_int (Mof.Id.Set.cardinal diff.Mof.Diff.modified));
  ]

let record ~transformation ~concern diff t =
  if Obs.enabled () then
    Obs.event ~cat:"transform" "trace.record"
      ~args:
        (("transformation", Obs.Event.V_string transformation)
        :: ("concern", Obs.Event.V_string concern)
        :: ("seq", Obs.Event.V_int (length t + 1))
        :: diff_args diff);
  { seq = length t + 1; transformation; concern; diff } :: t

let drop_last = function [] -> [] | _ :: rest -> rest

let concern_space t ~concern =
  List.fold_left
    (fun acc e ->
      if String.equal e.concern concern then
        Mof.Id.Set.union acc
          (Mof.Id.Set.union e.diff.Mof.Diff.added e.diff.Mof.Diff.modified)
      else acc)
    Mof.Id.Set.empty t

let concerns_applied t =
  List.fold_left
    (fun acc e -> if List.mem e.concern acc then acc else acc @ [ e.concern ])
    [] (entries t)

let introduced_by t id =
  let creator =
    List.find_opt
      (fun e -> Mof.Id.Set.mem id e.diff.Mof.Diff.added)
      (entries t)
  in
  Option.map (fun e -> e.concern) creator
