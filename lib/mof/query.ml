let resolve_all m ids = List.map (Model.find_exn m) ids

(* Materialize an index bucket as elements; Id.Set.elements is ascending, so
   the result order is byte-identical to the historical full-scan order. *)
let resolve_set m ids = resolve_all m (Id.Set.elements ids)

let of_metaclass m mc = resolve_set m (Model.by_kind m mc)

let classes m = of_metaclass m "Class"
let interfaces m = of_metaclass m "Interface"
let packages m = of_metaclass m "Package"
let associations m = of_metaclass m "Association"
let enumerations m = of_metaclass m "Enumeration"
let constraints m = of_metaclass m "Constraint"

let attributes_of m id =
  match (Model.find_exn m id).Element.kind with
  | Kind.Class c -> resolve_all m c.attributes
  | _ -> []

let operations_of m id =
  match (Model.find_exn m id).Element.kind with
  | Kind.Class c -> resolve_all m c.operations
  | Kind.Interface { operations } -> resolve_all m operations
  | _ -> []

let all_parameters_of m id =
  match (Model.find_exn m id).Element.kind with
  | Kind.Operation o -> resolve_all m o.params
  | _ -> []

let is_return e =
  match e.Element.kind with
  | Kind.Parameter { direction = Kind.Dir_return; _ } -> true
  | _ -> false

let parameters_of m id =
  List.filter (fun p -> not (is_return p)) (all_parameters_of m id)

let result_of m id =
  match List.find_opt is_return (all_parameters_of m id) with
  | Some { Element.kind = Kind.Parameter { param_type; _ }; _ } -> param_type
  | Some _ | None -> Kind.Dt_void

let public_operations_of m id =
  let is_public e =
    match e.Element.kind with
    | Kind.Operation { op_visibility = Kind.Public; _ } -> true
    | _ -> false
  in
  List.filter is_public (operations_of m id)

let owned_of m id =
  match (Model.find_exn m id).Element.kind with
  | Kind.Package { owned } -> resolve_all m owned
  | _ -> []

let supers_of m id =
  match (Model.find_exn m id).Element.kind with
  | Kind.Class c -> c.supers
  | _ -> []

let supers_transitive m id =
  (* not seeded with [id]: when an inheritance cycle passes through [id],
     the class appears in its own closure, which is what {!Wellformed}
     detects *)
  let supers c =
    (* total: a dangling super (deleted class still referenced) is kept in
       the closure but not expanded — it is Wellformed's Dangling_reference
       rule that reports it, so the traversal must survive it *)
    match Model.find m c with
    | Some { Element.kind = Kind.Class cl; _ } -> cl.Kind.supers
    | Some _ | None -> []
  in
  let rec walk seen queue =
    match queue with
    | [] -> []
    | c :: rest ->
        if Id.Set.mem c seen then walk seen rest
        else c :: walk (Id.Set.add c seen) (rest @ supers c)
  in
  walk Id.Set.empty (supers_of m id)

let realizations_of m id =
  match (Model.find_exn m id).Element.kind with
  | Kind.Class c -> c.realizes
  | _ -> []

let realizers_of m iface =
  List.filter
    (fun e -> List.exists (Id.equal iface) (realizations_of m e.Element.id))
    (classes m)

let owner_chain m id =
  (* nearest owner first *)
  let rec walk acc id =
    match (Model.find_exn m id).Element.owner with
    | None -> List.rev acc
    | Some o -> walk (o :: acc) o
  in
  walk [] id

let qualified_name m id =
  let e = Model.find_exn m id in
  if Id.equal id (Model.root m) then e.Element.name
  else
    let chain = List.rev (owner_chain m id) in
    let chain = List.filter (fun o -> not (Id.equal o (Model.root m))) chain in
    let names = List.map (fun o -> (Model.find_exn m o).Element.name) chain in
    String.concat "." (names @ [ e.Element.name ])

let find_by_qualified_name m qname =
  (* A matching element's simple name is the join of some suffix of the
     dot-split of [qname] (the whole of it for the root, or for names that
     themselves contain dots), so the name index narrows the candidates to
     those few ids; each is then verified against its actual qualified name.
     O(d·(log n + c·d)) for path depth d and c same-named candidates, vs the
     historical scan's O(n·d). *)
  let rec suffixes = function
    | [] -> []
    | _ :: rest as segments -> String.concat "." segments :: suffixes rest
  in
  let candidates =
    List.fold_left
      (fun acc name -> Id.Set.union acc (Model.by_name m name))
      Id.Set.empty
      (suffixes (String.split_on_char '.' qname))
  in
  (* Several elements can print the same qualified name when a simple name
     embeds a dot (a root-level class "bank.Account" vs a class "Account"
     in package "bank"). Prefer the structural reading — the deepest owner
     chain — so the package-join interpretation always beats a dotted
     simple name; ties (true duplicates) go to the lowest id. The old
     first-in-id-order rule made the winner depend on creation order. *)
  let depth id = List.length (owner_chain m id) in
  Id.Set.elements candidates
  |> List.filter (fun id -> String.equal (qualified_name m id) qname)
  |> List.fold_left
       (fun best id ->
         match best with
         | Some b when depth b >= depth id -> best
         | _ -> Some id)
       None
  |> Option.map (Model.find_exn m)

let find_class m name =
  Option.map (Model.find_exn m)
    (Id.Set.min_elt_opt
       (Id.Set.inter (Model.by_kind m "Class") (Model.by_name m name)))

let containing_class m id =
  let is_class o =
    match (Model.find_exn m o).Element.kind with
    | Kind.Class _ -> true
    | _ -> false
  in
  List.find_opt is_class (owner_chain m id)
