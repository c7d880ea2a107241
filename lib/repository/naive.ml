module Int_map = Map.Make (Int)

type commit = {
  id : int;
  parent : int option;
  message : string;
  model : Mof.Model.t;
  diff : Mof.Diff.t;
  transformation : string option;
  concern : string option;
}

type t = {
  commits : commit Int_map.t;
  head_id : int;
  redo_path : int list; (* child ids to re-advance through, nearest first *)
  tag_list : (string * int) list;
  next : int;
}

let init model =
  let root =
    {
      id = 0;
      parent = None;
      message = "initial model";
      model;
      diff = Mof.Diff.empty;
      transformation = None;
      concern = None;
    }
  in
  {
    commits = Int_map.singleton 0 root;
    head_id = 0;
    redo_path = [];
    tag_list = [];
    next = 1;
  }

let find t id = Int_map.find_opt id t.commits

let head t =
  match find t t.head_id with
  | Some c -> c
  | None -> assert false (* head always points at a stored commit *)

let head_model t = (head t).model

let commit ?transformation ?concern ~message model t =
  let parent = head t in
  let c =
    {
      id = t.next;
      parent = Some parent.id;
      message;
      model;
      diff = Mof.Diff.compute_scan ~old_model:parent.model ~new_model:model;
      transformation;
      concern;
    }
  in
  {
    t with
    commits = Int_map.add c.id c t.commits;
    head_id = c.id;
    redo_path = [];
    next = t.next + 1;
  }

let undo t =
  match (head t).parent with
  | None -> None
  | Some parent_id ->
      Some { t with head_id = parent_id; redo_path = t.head_id :: t.redo_path }

let redo t =
  match t.redo_path with
  | [] -> None
  | child :: rest -> Some { t with head_id = child; redo_path = rest }

let can_undo t = (head t).parent <> None
let can_redo t = t.redo_path <> []

let tag name t =
  let others =
    List.filter (fun (n, _) -> not (String.equal n name)) t.tag_list
  in
  { t with tag_list = (name, t.head_id) :: others }

let checkout name t =
  match List.assoc_opt name t.tag_list with
  | Some id when Int_map.mem id t.commits ->
      Some { t with head_id = id; redo_path = [] }
  | Some _ | None -> None

let tags t = t.tag_list

let log t =
  (* head-first chain *)
  let rec walk acc id =
    match find t id with
    | None -> List.rev acc
    | Some c -> (
        match c.parent with
        | None -> List.rev (c :: acc)
        | Some p -> walk (c :: acc) p)
  in
  walk [] t.head_id

let size t = Int_map.cardinal t.commits

let diff_between t ~from_id ~to_id =
  match (find t from_id, find t to_id) with
  | Some a, Some b ->
      Some (Mof.Diff.compute_scan ~old_model:a.model ~new_model:b.model)
  | _, _ -> None

let estimated_bytes t =
  Int_map.fold
    (fun _ c acc ->
      Mof.Model.fold
        (fun e acc -> acc + String.length (Mof.Canon.element_bytes e))
        c.model acc)
    t.commits 0
