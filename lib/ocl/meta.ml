let elem_seq ids = Value.seq (List.map (fun id -> Value.V_elem id) ids)
let elem_set ids = Value.set (List.map (fun id -> Value.V_elem id) ids)
let string_set ss = Value.set (List.map Value.of_string ss)

let datatype_value m dt = Value.V_string (Format.asprintf "%a" (Mof.Pp.datatype m) dt)

let common_property m (e : Mof.Element.t) = function
  | "name" -> Some (Value.V_string e.Mof.Element.name)
  | "qualifiedName" ->
      Some (Value.V_string (Mof.Query.qualified_name m e.Mof.Element.id))
  | "metaclass" -> Some (Value.V_string (Mof.Element.metaclass e))
  | "stereotypes" -> Some (string_set e.Mof.Element.stereotypes)
  | "tagKeys" -> Some (string_set (List.map fst e.Mof.Element.tags))
  | "owner" ->
      Some
        (match e.Mof.Element.owner with
        | Some o -> Value.V_elem o
        | None -> Value.V_undefined)
  | _ -> None

let kind_property m (e : Mof.Element.t) name =
  let id = e.Mof.Element.id in
  match (e.Mof.Element.kind, name) with
  | Mof.Kind.Package { owned }, "ownedElements" -> Some (elem_seq owned)
  | Mof.Kind.Class c, "attributes" -> Some (elem_seq c.attributes)
  | Mof.Kind.Class c, "operations" -> Some (elem_seq c.operations)
  | Mof.Kind.Class _, "allOperations" ->
      let own =
        List.map (fun o -> o.Mof.Element.id) (Mof.Query.operations_of m id)
      in
      let inherited =
        List.concat_map
          (fun s ->
            List.map (fun o -> o.Mof.Element.id) (Mof.Query.operations_of m s))
          (Mof.Query.supers_transitive m id)
      in
      Some (elem_seq (own @ inherited))
  | Mof.Kind.Class c, "supers" -> Some (elem_set c.supers)
  | Mof.Kind.Class _, "allSupers" ->
      Some (elem_set (Mof.Query.supers_transitive m id))
  | Mof.Kind.Class c, "interfaces" -> Some (elem_set c.realizes)
  | Mof.Kind.Class c, "isAbstract" -> Some (Value.V_bool c.is_abstract)
  | Mof.Kind.Interface { operations }, "operations" -> Some (elem_seq operations)
  | Mof.Kind.Interface _, "realizers" ->
      Some
        (elem_set
           (List.map (fun r -> r.Mof.Element.id) (Mof.Query.realizers_of m id)))
  | Mof.Kind.Attribute a, "type" -> Some (datatype_value m a.attr_type)
  | Mof.Kind.Attribute a, "visibility" ->
      Some (Value.V_string (Mof.Kind.visibility_to_string a.attr_visibility))
  | Mof.Kind.Attribute a, "lower" -> Some (Value.V_int a.attr_mult.Mof.Kind.lower)
  | Mof.Kind.Attribute a, "upper" ->
      Some
        (Value.V_int
           (match a.attr_mult.Mof.Kind.upper with None -> -1 | Some u -> u))
  | Mof.Kind.Attribute a, "isDerived" -> Some (Value.V_bool a.is_derived)
  | Mof.Kind.Attribute a, "isStatic" -> Some (Value.V_bool a.is_static)
  | Mof.Kind.Attribute a, "initial" ->
      Some
        (match a.initial_value with
        | Some v -> Value.V_string v
        | None -> Value.V_undefined)
  | Mof.Kind.Operation _, "parameters" ->
      Some
        (elem_seq
           (List.map (fun p -> p.Mof.Element.id) (Mof.Query.parameters_of m id)))
  | Mof.Kind.Operation o, "visibility" ->
      Some (Value.V_string (Mof.Kind.visibility_to_string o.op_visibility))
  | Mof.Kind.Operation o, "isQuery" -> Some (Value.V_bool o.is_query)
  | Mof.Kind.Operation o, "isAbstract" -> Some (Value.V_bool o.is_abstract_op)
  | Mof.Kind.Operation o, "isStatic" -> Some (Value.V_bool o.is_static_op)
  | Mof.Kind.Operation _, "resultType" ->
      Some (datatype_value m (Mof.Query.result_of m id))
  | Mof.Kind.Operation _, "class" ->
      Some
        (match Mof.Query.containing_class m id with
        | Some c -> Value.V_elem c
        | None -> Value.V_undefined)
  | Mof.Kind.Parameter p, "type" -> Some (datatype_value m p.param_type)
  | Mof.Kind.Parameter p, "direction" ->
      Some (Value.V_string (Mof.Kind.direction_to_string p.direction))
  | Mof.Kind.Association { ends }, "endTypes" ->
      Some (elem_seq (List.map (fun (en : Mof.Kind.assoc_end) -> en.end_type) ends))
  | Mof.Kind.Association { ends }, "endNames" ->
      Some
        (Value.seq
           (List.map
              (fun (en : Mof.Kind.assoc_end) -> Value.V_string en.end_name)
              ends))
  | Mof.Kind.Generalization { child; _ }, "child" -> Some (Value.V_elem child)
  | Mof.Kind.Generalization { parent; _ }, "parent" -> Some (Value.V_elem parent)
  | Mof.Kind.Dependency { client; _ }, "client" -> Some (Value.V_elem client)
  | Mof.Kind.Dependency { supplier; _ }, "supplier" -> Some (Value.V_elem supplier)
  | Mof.Kind.Constraint_ { body; _ }, "body" -> Some (Value.V_string body)
  | Mof.Kind.Constraint_ { language; _ }, "language" ->
      Some (Value.V_string language)
  | Mof.Kind.Constraint_ { constrained; _ }, "constrained" ->
      Some (elem_seq constrained)
  | Mof.Kind.Enumeration { literals }, "literals" ->
      Some (Value.seq (List.map Value.of_string literals))
  | _, _ -> None

let property m id name =
  match Mof.Model.find m id with
  | None -> Some Value.V_undefined
  | Some e -> (
      match common_property m e name with
      | Some v -> Some v
      | None -> kind_property m e name)

let operation m id name args =
  match (name, args) with
  | "hasStereotype", [ Value.V_string s ] -> (
      match Mof.Model.find m id with
      | Some e -> Some (Value.V_bool (Mof.Element.has_stereotype s e))
      | None -> Some Value.V_undefined)
  | "hasTag", [ Value.V_string k ] -> (
      match Mof.Model.find m id with
      | Some e -> Some (Value.V_bool (Mof.Element.tag k e <> None))
      | None -> Some Value.V_undefined)
  | "tag", [ Value.V_string k ] -> (
      match Mof.Model.find m id with
      | Some e ->
          Some
            (match Mof.Element.tag k e with
            | Some v -> Value.V_string v
            | None -> Value.V_undefined)
      | None -> Some Value.V_undefined)
  | _, _ -> None

let is_metaclass name =
  String.equal name "Element" || List.mem name Mof.Kind.all_names

let all_instances m name =
  if not (is_metaclass name) then None
  else if String.equal name "Element" then
    Some (elem_set (List.map (fun e -> e.Mof.Element.id) (Mof.Model.elements m)))
  else
    (* the kind index yields the ids directly, in the same ascending order
       the full scan produced — no need to materialize the elements *)
    Some (elem_set (Mof.Id.Set.elements (Mof.Model.by_kind m name)))

let common_names = [ "name"; "qualifiedName"; "metaclass"; "stereotypes"; "tagKeys"; "owner" ]

let property_names metaclass =
  let specific =
    match metaclass with
    | "Package" -> [ "ownedElements" ]
    | "Class" ->
        [
          "attributes";
          "operations";
          "allOperations";
          "supers";
          "allSupers";
          "interfaces";
          "isAbstract";
        ]
    | "Interface" -> [ "operations"; "realizers" ]
    | "Attribute" ->
        [ "type"; "visibility"; "lower"; "upper"; "isDerived"; "isStatic"; "initial" ]
    | "Operation" ->
        [
          "parameters";
          "visibility";
          "isQuery";
          "isAbstract";
          "isStatic";
          "resultType";
          "class";
        ]
    | "Parameter" -> [ "type"; "direction" ]
    | "Association" -> [ "endTypes"; "endNames" ]
    | "Generalization" -> [ "child"; "parent" ]
    | "Dependency" -> [ "client"; "supplier" ]
    | "Constraint" -> [ "body"; "language"; "constrained" ]
    | "Enumeration" -> [ "literals" ]
    | _ -> []
  in
  common_names @ specific
