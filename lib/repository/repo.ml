module Int_map = Map.Make (Int)
module Smap = Map.Make (String)

type checkout_error =
  | Unknown_tag of string
  | Unknown_branch of string
  | Dangling of { name : string; commit : int }

let pp_checkout_error ppf = function
  | Unknown_tag t -> Format.fprintf ppf "unknown tag %S" t
  | Unknown_branch b -> Format.fprintf ppf "unknown branch %S" b
  | Dangling { name; commit } ->
      Format.fprintf ppf "%S points at missing commit #%d" name commit

let checkout_error_to_string e = Format.asprintf "%a" pp_checkout_error e

type t = {
  store : Store.t;
  commits : Commit.t Int_map.t;
  head_id : int;
  redo_path : int list;
      (* child ids to re-advance through, nearest first *)
  tag_map : int Smap.t;
  branch_map : int Smap.t;
  current_branch : string;
  next : int;
}

(* Fold a whole model into the store, yielding its commit tree. Only the
   root commit pays this; ordinary commits extend the parent tree by the
   diff. *)
let tree_of_model store model =
  Mof.Model.fold
    (fun e (store, tree) ->
      let store, digest = Store.add store e in
      (store, Tree.add e.Mof.Element.id digest tree))
    model
    (store, Tree.empty)

(* Build a model from a commit tree alone: O(n log n) in every index. Only
   [load] pays this, once, for the root commit; every other version it
   loads is its parent's model with the tree delta applied. *)
let materialize store tree ~root ~next =
  let elements =
    (* bindings come back in ascending id order, the order [of_elements]
       and the historical scans expect *)
    List.map
      (fun (_, digest) -> Store.find_exn store digest)
      (Tree.bindings tree)
  in
  Mof.Model.of_elements ~root ~next elements

let publish_store_metrics t =
  if Obs.Metric.enabled () then begin
    Obs.gauge ~unit_:"objects" "repo.store.objects" []
      (float_of_int (Store.count t.store));
    Obs.gauge ~unit_:"bytes" "repo.store.bytes" []
      (float_of_int (Store.bytes t.store))
  end

let init ?(branch = "main") model =
  let store, tree = tree_of_model Store.empty model in
  let root_commit =
    {
      Commit.id = 0;
      parent = None;
      message = "initial model";
      tree;
      model;
      diff = Mof.Diff.empty;
      transformation = None;
      concern = None;
    }
  in
  let t =
    {
      store;
      commits = Int_map.singleton 0 root_commit;
      head_id = 0;
      redo_path = [];
      tag_map = Smap.empty;
      branch_map = Smap.singleton branch 0;
      current_branch = branch;
      next = 1;
    }
  in
  publish_store_metrics t;
  t

let find t id = Int_map.find_opt id t.commits

let head t =
  match find t t.head_id with
  | Some c -> c
  | None -> assert false (* head always points at a stored commit *)

let head_model t = (head t).Commit.model

(* Append [model] as a child of commit [parent], on branch [branch] — the
   shared machinery behind [commit] and [commit_on]. The child tree is the
   parent tree with only the diff applied, so everything unchanged is
   shared. *)
let append ?transformation ?concern ~message ~branch ~(parent : Commit.t)
    model t =
  let diff = Mof.Diff.compute ~old_model:parent.Commit.model ~new_model:model in
  let tree =
    Mof.Id.Set.fold Tree.remove diff.Mof.Diff.removed parent.Commit.tree
  in
  let store, tree =
    Mof.Id.Set.fold
      (fun id (store, tree) ->
        let store, digest = Store.add store (Mof.Model.find_exn model id) in
        (store, Tree.add id digest tree))
      (Mof.Id.Set.union diff.Mof.Diff.added diff.Mof.Diff.modified)
      (t.store, tree)
  in
  let c =
    {
      Commit.id = t.next;
      parent = Some parent.Commit.id;
      message;
      tree;
      model;
      diff;
      transformation;
      concern;
    }
  in
  let t =
    {
      t with
      store;
      commits = Int_map.add c.Commit.id c t.commits;
      head_id = c.Commit.id;
      redo_path = [];
      branch_map = Smap.add branch c.Commit.id t.branch_map;
      current_branch = branch;
      next = t.next + 1;
    }
  in
  if Obs.Metric.enabled () then begin
    publish_store_metrics t;
    let total = Commit.tree_size c in
    if total > 0 then begin
      let changed =
        Mof.Id.Set.cardinal diff.Mof.Diff.added
        + Mof.Id.Set.cardinal diff.Mof.Diff.modified
      in
      (* in permille: the histogram quantizes samples to integers *)
      Obs.observe ~unit_:"permille" "repo.commit.shared_permille" []
        (float_of_int ((total - changed) * 1000 / total))
    end
  end;
  t

let commit ?transformation ?concern ~message model t =
  append ?transformation ?concern ~message ~branch:t.current_branch
    ~parent:(head t) model t

let commit_on ~branch ?transformation ?concern ~message model t =
  match Smap.find_opt branch t.branch_map with
  | None -> Error (Unknown_branch branch)
  | Some id -> (
      match find t id with
      | None -> Error (Dangling { name = branch; commit = id })
      | Some parent ->
          Ok (append ?transformation ?concern ~message ~branch ~parent model t))

(* Move the head to a stored commit and drag the current branch pointer
   along. *)
let move_head t id ~redo_path =
  {
    t with
    head_id = id;
    redo_path;
    branch_map = Smap.add t.current_branch id t.branch_map;
  }

let undo t =
  match (head t).Commit.parent with
  | None -> None
  | Some parent_id ->
      Some (move_head t parent_id ~redo_path:(t.head_id :: t.redo_path))

let redo t =
  match t.redo_path with
  | [] -> None
  | child :: rest -> Some (move_head t child ~redo_path:rest)

let can_undo t = (head t).Commit.parent <> None
let can_redo t = t.redo_path <> []

let tag name t = { t with tag_map = Smap.add name t.head_id t.tag_map }
let tags t = Smap.bindings t.tag_map

let checkout name t =
  match Smap.find_opt name t.tag_map with
  | None -> Error (Unknown_tag name)
  | Some id ->
      if Int_map.mem id t.commits then Ok (move_head t id ~redo_path:[])
      else Error (Dangling { name; commit = id })

let branch t = t.current_branch
let branches t = Smap.bindings t.branch_map
let branch_head t name = Smap.find_opt name t.branch_map

let create_branch name t =
  if Smap.mem name t.branch_map then Error (`Branch_exists name)
  else Ok { t with branch_map = Smap.add name t.head_id t.branch_map }

let switch_branch name t =
  match Smap.find_opt name t.branch_map with
  | None -> Error (Unknown_branch name)
  | Some id ->
      if Int_map.mem id t.commits then
        Ok { t with head_id = id; redo_path = []; current_branch = name }
      else Error (Dangling { name; commit = id })

let model_at t id = Option.map (fun (c : Commit.t) -> c.Commit.model) (find t id)

let log t =
  (* head-first chain *)
  let rec walk acc id =
    match find t id with
    | None -> List.rev acc
    | Some c -> (
        match c.Commit.parent with
        | None -> List.rev (c :: acc)
        | Some p -> walk (c :: acc) p)
  in
  walk [] t.head_id

let size t = Int_map.cardinal t.commits

let diff_between t ~from_id ~to_id =
  match (find t from_id, find t to_id) with
  | None, _ | _, None -> None
  | Some a, Some b -> Some (Tree.diff a.Commit.tree b.Commit.tree)

let diff_between_scan t ~from_id ~to_id =
  match (model_at t from_id, model_at t to_id) with
  | Some old_model, Some new_model ->
      Some (Mof.Diff.compute_scan ~old_model ~new_model)
  | _ -> None

let store_objects t = Store.count t.store
let store_bytes t = Store.bytes t.store

(* --- binary snapshots -------------------------------------------------- *)

let magic = "MDWREPO1"

let w_id_set buf s = Mof.Canon.w_list Mof.Canon.w_id buf (Mof.Id.Set.elements s)
let r_id_set r = Mof.Id.Set.of_list (Mof.Canon.r_list Mof.Canon.r_id r)

(* Determinism is structural: objects stream in digest order (Store.fold),
   commits in id order (Int_map.iter), names in name order (Smap.bindings),
   id sets in ascending order — no iteration order depends on construction
   history, which is what makes save ∘ load ∘ save a byte fixpoint. *)
let save t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  (* each store object exactly once; remember digest → stream index *)
  Mof.Canon.w_int buf (Store.count t.store);
  let index = Hashtbl.create (max 16 (Store.count t.store)) in
  let (_ : int) =
    Store.fold
      (fun digest _e bytes i ->
        Buffer.add_string buf digest;
        Mof.Canon.w_str buf bytes;
        Hashtbl.add index digest i;
        i + 1)
      t.store 0
  in
  let w_delta removed set =
    Mof.Canon.w_list Mof.Canon.w_id buf removed;
    Mof.Canon.w_list
      (fun buf (id, digest) ->
        Mof.Canon.w_id buf id;
        Mof.Canon.w_int buf (Hashtbl.find index digest))
      buf set
  in
  (* The root commit writes its whole tree. Any other commit's tree differs
     from its parent's only at ids its stored diff touched, so the delta
     classifies those alone, in ascending order like the whole-tree fold
     it replaces: O(changes · log n) per commit, not O(n). *)
  let w_tree_delta (c : Commit.t) =
    match c.Commit.parent with
    | None -> w_delta [] (Tree.bindings c.Commit.tree)
    | Some p ->
        let parent_tree = (Int_map.find p t.commits).Commit.tree in
        let removed, set =
          Mof.Id.Set.fold
            (fun id (removed, set) ->
              match
                (Tree.find_opt id parent_tree, Tree.find_opt id c.Commit.tree)
              with
              | Some _, None -> (id :: removed, set)
              | Some d, Some digest when String.equal d digest -> (removed, set)
              | _, Some digest -> (removed, (id, digest) :: set)
              | None, None -> (removed, set))
            (Mof.Diff.touched c.Commit.diff)
            ([], [])
        in
        w_delta (List.rev removed) (List.rev set)
  in
  (* ascending id order; ids are allocated monotonically so every parent
     precedes its children and tree deltas resolve on load *)
  Mof.Canon.w_int buf (Int_map.cardinal t.commits);
  Int_map.iter
    (fun _ (c : Commit.t) ->
      Mof.Canon.w_int buf c.Commit.id;
      Mof.Canon.w_opt Mof.Canon.w_int buf c.Commit.parent;
      Mof.Canon.w_str buf c.Commit.message;
      Mof.Canon.w_opt Mof.Canon.w_str buf c.Commit.transformation;
      Mof.Canon.w_opt Mof.Canon.w_str buf c.Commit.concern;
      Mof.Canon.w_id buf (Mof.Model.root c.Commit.model);
      Mof.Canon.w_int buf (Mof.Model.next c.Commit.model);
      w_tree_delta c;
      w_id_set buf c.Commit.diff.Mof.Diff.added;
      w_id_set buf c.Commit.diff.Mof.Diff.removed;
      w_id_set buf c.Commit.diff.Mof.Diff.modified)
    t.commits;
  Mof.Canon.w_int buf t.head_id;
  Mof.Canon.w_list Mof.Canon.w_int buf t.redo_path;
  Mof.Canon.w_int buf t.next;
  let w_named m =
    Mof.Canon.w_list
      (fun buf (name, id) ->
        Mof.Canon.w_str buf name;
        Mof.Canon.w_int buf id)
      buf (Smap.bindings m)
  in
  w_named t.tag_map;
  w_named t.branch_map;
  Mof.Canon.w_str buf t.current_branch;
  Buffer.contents buf

let load data =
  let corrupt fmt = Printf.ksprintf (fun msg -> raise (Mof.Canon.Corrupt msg)) fmt in
  try
    if
      String.length data < String.length magic
      || not (String.equal (String.sub data 0 (String.length magic)) magic)
    then Error "repository snapshot: bad magic"
    else begin
      let r = Mof.Canon.reader ~pos:(String.length magic) data in
      let n_objects = Mof.Canon.r_int r in
      (* An object takes a digest and a length-prefixed payload, so at least
         [digest_size + 1] bytes: a count the rest of the input cannot hold
         is refused before the object table is allocated for it. *)
      let remaining = String.length data - Mof.Canon.pos r in
      if n_objects < 0 || n_objects > remaining / (Mof.Canon.digest_size + 1) then
        corrupt "object count %d exceeds what the remaining %d bytes can hold"
          n_objects remaining;
      let store = ref Store.empty in
      let objects =
        Array.init n_objects (fun i ->
            let digest = Mof.Canon.r_bytes r Mof.Canon.digest_size in
            let bytes = Mof.Canon.r_str r in
            if not (String.equal (Digest.string bytes) digest) then
              corrupt "object digest mismatch at index %d" i;
            let er = Mof.Canon.reader bytes in
            let e = Mof.Canon.read_element er in
            if not (Mof.Canon.at_end er) then corrupt "trailing bytes after element";
            let store', d = Store.add !store e in
            if not (String.equal d digest) then corrupt "non-canonical object payload";
            store := store';
            (digest, e))
      in
      let object_at i =
        if i < 0 || i >= n_objects then corrupt "object index out of range"
        else objects.(i)
      in
      (* Every version is rebuilt here, once, in ascending id order: the root
         commit from its whole tree, every other commit from its parent's
         model with its tree delta applied. What the rebuild and the version
         walks rely on is checked first, in O(changes · log n) per commit:
         ids ascend, so a parent (always read before its child) has the
         smaller id; exactly one commit has no parent, so every two commits
         share an ancestor; a tree differs from its parent's only at ids the
         stored diff touched; each binding's object holds the id it is bound
         to; and every tree holds its root package and no id at or above its
         next-id counter. *)
      let n_commits = Mof.Canon.r_int r in
      let commits = ref Int_map.empty in
      for _ = 1 to n_commits do
        let id = Mof.Canon.r_int r in
        (match Int_map.max_binding_opt !commits with
        | Some (last, _) when id <= last ->
            corrupt "commit #%d is out of ascending id order (after #%d)" id last
        | _ -> ());
        let parent = Mof.Canon.r_opt Mof.Canon.r_int r in
        let message = Mof.Canon.r_str r in
        let transformation = Mof.Canon.r_opt Mof.Canon.r_str r in
        let concern = Mof.Canon.r_opt Mof.Canon.r_str r in
        let root = Mof.Canon.r_id r in
        let next_id = Mof.Canon.r_int r in
        let parent_commit =
          match parent with
          | None ->
              if not (Int_map.is_empty !commits) then
                corrupt "commit #%d is a second commit without a parent" id;
              None
          | Some p -> (
              match Int_map.find_opt p !commits with
              | Some _ as pc -> pc
              | None -> corrupt "commit #%d references unknown parent #%d" id p)
        in
        let removed = Mof.Canon.r_list Mof.Canon.r_id r in
        let set =
          Mof.Canon.r_list
            (fun r ->
              let eid = Mof.Canon.r_id r in
              let digest, e = object_at (Mof.Canon.r_int r) in
              if not (Mof.Id.equal e.Mof.Element.id eid) then
                corrupt "commit #%d binds %s to an object holding %s" id
                  (Mof.Id.to_string eid)
                  (Mof.Id.to_string e.Mof.Element.id);
              (eid, digest, e))
            r
        in
        let tree =
          List.fold_left
            (fun tr rid -> Tree.remove rid tr)
            (match parent_commit with
            | Some (pc : Commit.t) -> pc.Commit.tree
            | None -> Tree.empty)
            removed
        in
        let tree =
          List.fold_left
            (fun tr (eid, digest, _) -> Tree.add eid digest tr)
            tree set
        in
        let added = r_id_set r in
        let d_removed = r_id_set r in
        let modified = r_id_set r in
        let diff = { Mof.Diff.added; removed = d_removed; modified } in
        (if parent <> None then
           let touched = Mof.Diff.touched diff in
           match
             List.find_opt
               (fun eid -> not (Mof.Id.Set.mem eid touched))
               (removed @ List.map (fun (eid, _, _) -> eid) set)
           with
           | Some eid ->
               corrupt "commit #%d changes %s outside its stored diff" id
                 (Mof.Id.to_string eid)
           | None -> ());
        if not (Tree.mem root tree) then
          corrupt "commit #%d does not hold its root package %s" id
            (Mof.Id.to_string root);
        (match Tree.max_binding_opt tree with
        | Some (eid, _) when Mof.Id.to_int eid >= next_id ->
            corrupt "commit #%d holds %s, not below its next-id counter %d" id
              (Mof.Id.to_string eid) next_id
        | _ -> ());
        let model =
          match parent_commit with
          | None -> materialize !store tree ~root ~next:next_id
          | Some pc ->
              let m = List.fold_left Mof.Model.remove pc.Commit.model removed in
              let m =
                List.fold_left
                  (fun m (eid, _, e) ->
                    if Mof.Model.mem m eid then Mof.Model.update m eid (fun _ -> e)
                    else Mof.Model.add m e)
                  m set
              in
              Mof.Model.with_root ~root ~next:next_id m
        in
        let c =
          { Commit.id; parent; message; tree; model; diff; transformation; concern }
        in
        commits := Int_map.add id c !commits
      done;
      let head_id = Mof.Canon.r_int r in
      let redo_path = Mof.Canon.r_list Mof.Canon.r_int r in
      let next = Mof.Canon.r_int r in
      (* a later commit takes id [next], and must not reuse a stored one *)
      (match Int_map.max_binding_opt !commits with
      | Some (last, _) when next <= last ->
          corrupt "next commit id %d does not exceed commit #%d" next last
      | _ -> ());
      (* [redo] moves the head to these ids without looking further *)
      (match List.find_opt (fun id -> not (Int_map.mem id !commits)) redo_path with
      | Some id -> corrupt "redo path names unknown commit #%d" id
      | None -> ());
      let r_named () =
        List.fold_left
          (fun m (name, id) -> Smap.add name id m)
          Smap.empty
          (Mof.Canon.r_list
             (fun r ->
               let name = Mof.Canon.r_str r in
               let id = Mof.Canon.r_int r in
               (name, id))
             r)
      in
      let tag_map = r_named () in
      let branch_map = r_named () in
      let current_branch = Mof.Canon.r_str r in
      if not (Mof.Canon.at_end r) then
        raise (Mof.Canon.Corrupt "trailing bytes after snapshot");
      if not (Int_map.mem head_id !commits) then
        Error (Printf.sprintf "snapshot head #%d is not stored" head_id)
      else
        let t =
          {
            store = !store;
            commits = !commits;
            head_id;
            redo_path;
            tag_map;
            branch_map;
            current_branch;
            next;
          }
        in
        publish_store_metrics t;
        Ok t
    end
  with
  | Mof.Canon.Corrupt msg -> Error ("repository snapshot: " ^ msg)
  | Invalid_argument msg -> Error ("repository snapshot: " ^ msg)
