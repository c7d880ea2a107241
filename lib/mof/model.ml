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
  ix_owner : Id.Set.t Id.Map.t;  (* owner id -> ids whose [owner] field is it *)
  ix_referrers : Id.Set.t Id.Map.t;
      (* target id -> ids whose [Kind.refs] mention it; keyed by the target
         whether or not the target is currently bound, so dangling
         references stay discoverable after a removal *)
}

type t = {
  store : Element.t Id.Map.t;
  root : Id.t;
  next : int;
  idx : indexes;
  origin : unit ref;
      (* lineage token: all models derived by add/update/remove share their
         ancestor's [origin]; create/of_elements mint a fresh one *)
  rev : int;  (* bumped once per mutation *)
  journal : (int * Id.t) list;
      (* touched ids, newest first, each stamped with the revision that
         touched it; a descendant's journal extends its ancestor's by
         prepending, which is what makes watermark comparison O(changes) *)
}

type watermark = {
  w_origin : unit ref;
  w_rev : int;
  w_tail : (int * Id.t) list;
}

exception Element_not_found of Id.t

let empty_indexes =
  {
    ix_kind = Smap.empty;
    ix_name = Smap.empty;
    ix_owner = Id.Map.empty;
    ix_referrers = Id.Map.empty;
  }

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

let ibucket_add key id map =
  Id.Map.update key
    (function
      | None -> Some (Id.Set.singleton id) | Some s -> Some (Id.Set.add id s))
    map

let ibucket_drop key id map =
  Id.Map.update key
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
    ix_owner =
      (match e.Element.owner with
      | Some o -> ibucket_add o id idx.ix_owner
      | None -> idx.ix_owner);
    ix_referrers =
      List.fold_left
        (fun acc target -> ibucket_add target id acc)
        idx.ix_referrers
        (Kind.refs e.Element.kind);
  }

let unindex_element e idx =
  let id = e.Element.id in
  {
    ix_kind = sbucket_drop (Kind.name e.Element.kind) id idx.ix_kind;
    ix_name = sbucket_drop e.Element.name id idx.ix_name;
    ix_owner =
      (match e.Element.owner with
      | Some o -> ibucket_drop o id idx.ix_owner
      | None -> idx.ix_owner);
    ix_referrers =
      List.fold_left
        (fun acc target -> ibucket_drop target id acc)
        idx.ix_referrers
        (Kind.refs e.Element.kind);
  }

(* [key_changes compare olds news] is the pair (keys only in [olds], keys only
   in [news]), each without duplicates: a sort-merge in O(k log k). Pairwise
   [List.mem] would be quadratic in a package's owned refs, which run past a
   hundred in a large model's root. *)
let key_changes compare olds news =
  let rec merge gone came olds news =
    match (olds, news) with
    | [], [] -> (gone, came)
    | o :: olds, [] -> merge (o :: gone) came olds []
    | [], n :: news -> merge gone (n :: came) [] news
    | o :: olds', n :: news' ->
        let c = compare o n in
        if c = 0 then merge gone came olds' news'
        else if c < 0 then merge (o :: gone) came olds' news
        else merge gone (n :: came) olds news'
  in
  merge [] [] (List.sort_uniq compare olds) (List.sort_uniq compare news)

(* Move [e]'s id from the buckets of the keys [e] had to those [e'] has, for
   the keys that differ and only those: an update typically changes one key
   (a rename, one ref appended to a containment list), and dropping and
   re-adding every other bucket was most of its cost. *)
let reindex_element e e' idx =
  let id = e.Element.id in
  let moved drop add compare olds news acc =
    let gone, came = key_changes compare olds news in
    let acc = List.fold_left (fun acc k -> drop k id acc) acc gone in
    List.fold_left (fun acc k -> add k id acc) acc came
  in
  let kind = Kind.name e.Element.kind and kind' = Kind.name e'.Element.kind in
  let name = e.Element.name and name' = e'.Element.name in
  {
    ix_kind =
      (if String.equal kind kind' then idx.ix_kind
       else sbucket_add kind' id (sbucket_drop kind id idx.ix_kind));
    ix_name =
      (if String.equal name name' then idx.ix_name
       else sbucket_add name' id (sbucket_drop name id idx.ix_name));
    ix_owner =
      (match (e.Element.owner, e'.Element.owner) with
      | Some o, Some o' when Id.equal o o' -> idx.ix_owner
      | None, None -> idx.ix_owner
      | o, o' ->
          let drop = match o with Some o -> ibucket_drop o id | None -> Fun.id in
          let add = match o' with Some o' -> ibucket_add o' id | None -> Fun.id in
          add (drop idx.ix_owner));
    ix_referrers =
      (if e.Element.kind == e'.Element.kind then idx.ix_referrers
       else
         moved ibucket_drop ibucket_add Id.compare (Kind.refs e.Element.kind)
           (Kind.refs e'.Element.kind) idx.ix_referrers);
  }

(* One journal entry per mutation, even when the new element is equal to the
   old one: consumers classify journal candidates against both models, so a
   spurious entry costs one comparison, never a wrong diff. *)
let touch m id = { m with rev = m.rev + 1; journal = (m.rev + 1, id) :: m.journal }

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
    origin = ref ();
    rev = 0;
    journal = [];
  }

let root m = m.root

let of_elements ~root ~next elements =
  let store, idx =
    List.fold_left
      (fun (store, idx) e ->
        let id = e.Element.id in
        if Id.Map.mem id store then
          invalid_arg ("Mof.Model.of_elements: duplicate id " ^ Id.to_string id)
        else if Id.to_int id >= next then
          invalid_arg
            ("Mof.Model.of_elements: id " ^ Id.to_string id
           ^ " exceeds the next-id counter")
        else (Id.Map.add id e store, index_element e idx))
      (Id.Map.empty, empty_indexes)
      elements
  in
  if not (Id.Map.mem root store) then
    invalid_arg "Mof.Model.of_elements: root element missing";
  { store; root; next; idx; origin = ref (); rev = 0; journal = [] }

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
  if mem m id then
    invalid_arg ("Mof.Model.add: duplicate id " ^ Id.to_string id)
  else
    touch
      {
        m with
        store = Id.Map.add id e m.store;
        (* keep the invariant that [next] exceeds every bound id, so
           [next] is directly serializable (see Xmi.Export) *)
        next = max m.next (Id.to_int id + 1);
        idx = index_element e m.idx;
      }
      id

let update m id f =
  let e = find_exn m id in
  let e' = f e in
  touch
    { m with store = Id.Map.add id e' m.store; idx = reindex_element e e' m.idx }
    id

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
  | Some e ->
      touch
        { m with store = Id.Map.remove id m.store; idx = unindex_element e m.idx }
        id

(* ---- indexed lookups ---------------------------------------------------- *)

let set_of = function None -> Id.Set.empty | Some s -> s

let by_kind m kind = set_of (Smap.find_opt kind m.idx.ix_kind)
let by_name m name = set_of (Smap.find_opt name m.idx.ix_name)
let owned_by m id = set_of (Id.Map.find_opt id m.idx.ix_owner)
let referrers m id = set_of (Id.Map.find_opt id m.idx.ix_referrers)

(* ---- journal ------------------------------------------------------------ *)

let watermark m = { w_origin = m.origin; w_rev = m.rev; w_tail = m.journal }

let touched_since m w =
  if not (w.w_origin == m.origin) then None
  else
    let rec strip acc = function
      | (r, id) :: rest when r > w.w_rev -> strip (Id.Set.add id acc) rest
      | rest ->
          (* [m] descends from the watermarked model exactly when, after
             stripping the newer entries, we are looking at the very list the
             watermark captured *)
          if rest == w.w_tail then Some acc else None
    in
    strip Id.Set.empty m.journal

(* ---- whole-population traversal ----------------------------------------- *)

let fold f m init = Id.Map.fold (fun _ e acc -> f e acc) m.store init
let elements m = List.map snd (Id.Map.bindings m.store)
let size m = Id.Map.cardinal m.store
let is_empty m = Id.Map.is_empty m.store

let equal a b = Id.equal a.root b.root && Id.Map.equal Element.equal a.store b.store
