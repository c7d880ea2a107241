module Smap = Map.Make (String)

(* Secondary indexes over the element population. Every index is derived
   from the store and maintained incrementally by [add]/[update]/[remove]:
   the invariant is that rebuilding an index from a full scan of [store]
   yields exactly the maps below (asserted by the randomized consistency
   test in test_mof.ml). Buckets never hold empty sets — a key with no
   members is absent. *)
type indexes = {
  ix_kind : Id.Set.t Smap.t;  (* metaclass name -> ids of that kind *)
  ix_name : Id.Set.t Smap.t;  (* simple name -> ids bearing it *)
}

type t = { store : Element.t Id.Map.t; root : Id.t; next : int; idx : indexes }

exception Element_not_found of Id.t

let empty_indexes = { ix_kind = Smap.empty; ix_name = Smap.empty }

let sbucket_add key id map =
  Smap.update key
    (function
      | None -> Some (Id.Set.singleton id) | Some s -> Some (Id.Set.add id s))
    map

let sbucket_drop key id map =
  Smap.update key
    (function
      | None -> None
      | Some s ->
          let s = Id.Set.remove id s in
          if Id.Set.is_empty s then None else Some s)
    map

let index_element e idx =
  let id = e.Element.id in
  {
    ix_kind = sbucket_add (Kind.name e.Element.kind) id idx.ix_kind;
    ix_name = sbucket_add e.Element.name id idx.ix_name;
  }

let unindex_element e idx =
  let id = e.Element.id in
  {
    ix_kind = sbucket_drop (Kind.name e.Element.kind) id idx.ix_kind;
    ix_name = sbucket_drop e.Element.name id idx.ix_name;
  }

(* Move [e]'s id between the buckets of the keys that differ from [e'] and
   only those: a stereotype, tag or containment edit changes neither key,
   and leaves the indexes as they were. *)
let reindex_element e e' idx =
  let id = e.Element.id in
  let kind = Kind.name e.Element.kind and kind' = Kind.name e'.Element.kind in
  let name = e.Element.name and name' = e'.Element.name in
  {
    ix_kind =
      (if String.equal kind kind' then idx.ix_kind
       else sbucket_add kind' id (sbucket_drop kind id idx.ix_kind));
    ix_name =
      (if String.equal name name' then idx.ix_name
       else sbucket_add name' id (sbucket_drop name id idx.ix_name));
  }

let create ~name =
  let root = Id.of_int 0 in
  let root_elt =
    Element.make ~id:root ~name ~owner:None (Kind.Package { owned = [] })
  in
  {
    store = Id.Map.singleton root root_elt;
    root;
    next = 1;
    idx = index_element root_elt empty_indexes;
  }

let root m = m.root

let of_elements ~root ~next elements =
  let store, idx =
    List.fold_left
      (fun (store, idx) e ->
        let id = e.Element.id in
        (* every id already bound is below [next], so one at or above it is
           never a duplicate *)
        if Id.to_int id >= next then
          invalid_arg
            ("Mof.Model.of_elements: id " ^ Id.to_string id
           ^ " exceeds the next-id counter")
        else
          let store' = Id.Map.add id e store in
          if Id.Map.cardinal store' = Id.Map.cardinal store then
            invalid_arg
              ("Mof.Model.of_elements: duplicate id " ^ Id.to_string id)
          else (store', index_element e idx))
      (Id.Map.empty, empty_indexes)
      elements
  in
  if not (Id.Map.mem root store) then
    invalid_arg "Mof.Model.of_elements: root element missing";
  { store; root; next; idx }

let find m id = Id.Map.find_opt id m.store

let find_exn m id =
  match find m id with
  | Some e -> e
  | None -> raise (Element_not_found id)

let name m = (find_exn m m.root).Element.name
let level_tag m = Element.tag "level" (find_exn m m.root)

let mem m id = Id.Map.mem id m.store

let next m = m.next

let fresh_id m = ({ m with next = m.next + 1 }, Id.of_int m.next)

let add m e =
  let id = e.Element.id in
  let store = Id.Map.add id e m.store in
  if Id.Map.cardinal store = Id.Map.cardinal m.store then
    invalid_arg ("Mof.Model.add: duplicate id " ^ Id.to_string id)
  else
    {
      m with
      store;
      (* keep the invariant that [next] exceeds every bound id, so
         [next] is directly serializable (see Xmi.Export) *)
      next = max m.next (Id.to_int id + 1);
      idx = index_element e m.idx;
    }

let update m id f =
  let e = find_exn m id in
  let e' = f e in
  { m with store = Id.Map.add id e' m.store; idx = reindex_element e e' m.idx }

let with_root ~root ~next m =
  if not (mem m root) then invalid_arg "Mof.Model.with_root: root element missing"
  else
    match Id.Map.max_binding_opt m.store with
    | Some (id, _) when Id.to_int id >= next ->
        invalid_arg
          ("Mof.Model.with_root: id " ^ Id.to_string id ^ " exceeds the next-id counter")
    | _ -> { m with root; next }

let set_level_tag level m = update m m.root (Element.set_tag "level" level)

let remove m id =
  match find m id with
  | None -> m
  | Some e -> { m with store = Id.Map.remove id m.store; idx = unindex_element e m.idx }

(* ---- indexed lookups ---------------------------------------------------- *)

let set_of = function None -> Id.Set.empty | Some s -> s

let by_kind m kind = set_of (Smap.find_opt kind m.idx.ix_kind)
let by_name m name = set_of (Smap.find_opt name m.idx.ix_name)

(* ---- whole-population traversal ----------------------------------------- *)

let store m = m.store
let fold f m init = Id.Map.fold (fun _ e acc -> f e acc) m.store init
let elements m = List.map snd (Id.Map.bindings m.store)
let size m = Id.Map.cardinal m.store
let is_empty m = Id.Map.is_empty m.store

let equal a b = Id.equal a.root b.root && Id.Map.equal Element.equal a.store b.store
