type t = {
  added : Id.Set.t;
  removed : Id.Set.t;
  modified : Id.Set.t;
}

let empty = { added = Id.Set.empty; removed = Id.Set.empty; modified = Id.Set.empty }

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

(* Classify only the journalled candidates: an id touched since the old
   model's watermark is added/removed/modified according to where it is
   bound now; anything touched and touched back (or touched without change)
   drops out on the equality check. *)
let compute_journal ~old_model ~new_model touched =
  Id.Set.fold
    (fun id acc ->
      match (Model.find old_model id, Model.find new_model id) with
      | None, Some _ -> { acc with added = Id.Set.add id acc.added }
      | Some _, None -> { acc with removed = Id.Set.add id acc.removed }
      | Some old_e, Some new_e ->
          if Element.equal old_e new_e then acc
          else { acc with modified = Id.Set.add id acc.modified }
      | None, None -> acc)
    touched empty

let compute ~old_model ~new_model =
  match Model.touched_since new_model (Model.watermark old_model) with
  | Some touched -> compute_journal ~old_model ~new_model touched
  | None -> compute_scan ~old_model ~new_model

let touched d = Id.Set.union d.added (Id.Set.union d.removed d.modified)

let pp ppf d =
  Format.fprintf ppf "+%d -%d ~%d" (Id.Set.cardinal d.added)
    (Id.Set.cardinal d.removed) (Id.Set.cardinal d.modified)
