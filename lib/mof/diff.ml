type t = Id.Map.changes = {
  added : Id.Set.t;
  removed : Id.Set.t;
  modified : Id.Set.t;
}

let empty = Id.Map.no_changes

let compute ~old_model ~new_model =
  Id.Map.diff Element.equal (Model.store old_model) (Model.store new_model)

let compute_scan ~old_model ~new_model =
  let classify e acc =
    let id = e.Element.id in
    match Model.find old_model id with
    | None -> { acc with added = Id.Set.add id acc.added }
    | Some old_e ->
        if Element.equal old_e e then acc
        else { acc with modified = Id.Set.add id acc.modified }
  in
  let acc = Model.fold classify new_model empty in
  let removed =
    Model.fold
      (fun e acc ->
        if Model.mem new_model e.Element.id then acc
        else Id.Set.add e.Element.id acc)
      old_model Id.Set.empty
  in
  { acc with removed }

let touched d = Id.Set.union d.added (Id.Set.union d.removed d.modified)

let pp ppf d =
  Format.fprintf ppf "+%d -%d ~%d" (Id.Set.cardinal d.added)
    (Id.Set.cardinal d.removed) (Id.Set.cardinal d.modified)
