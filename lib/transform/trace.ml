type entry = { cmt : Cmt.t; diff : Mof.Diff.t }
type t = entry list (* application order *)

let empty = []

let record entry t = t @ [ entry ]

let drop_last t =
  match List.rev t with [] -> [] | _ :: earlier -> List.rev earlier

let applied t = List.map (fun e -> e.cmt) t

let summary e =
  Format.asprintf "%s [%s] %a" (Cmt.name e.cmt) (Cmt.concern e.cmt) Mof.Diff.pp
    e.diff

let concern_space t ~concern =
  List.fold_left
    (fun acc e ->
      if String.equal (Cmt.concern e.cmt) concern then
        Mof.Id.Set.union acc
          (Mof.Id.Set.union e.diff.Mof.Diff.added e.diff.Mof.Diff.modified)
      else acc)
    Mof.Id.Set.empty t

let concerns_applied t =
  List.fold_left
    (fun acc e ->
      let concern = Cmt.concern e.cmt in
      if List.mem concern acc then acc else acc @ [ concern ])
    [] t

let introduced_by t id =
  let creator =
    List.find_opt (fun e -> Mof.Id.Set.mem id e.diff.Mof.Diff.added) t
  in
  Option.map (fun e -> Cmt.concern e.cmt) creator
