type ty =
  | T_boolean
  | T_integer
  | T_real
  | T_string
  | T_element of string option
  | T_set of ty
  | T_seq of ty
  | T_bag of ty
  | T_any

let rec ty_to_string = function
  | T_boolean -> "Boolean"
  | T_integer -> "Integer"
  | T_real -> "Real"
  | T_string -> "String"
  | T_element None -> "Element"
  | T_element (Some mc) -> mc
  | T_set t -> "Set(" ^ ty_to_string t ^ ")"
  | T_seq t -> "Sequence(" ^ ty_to_string t ^ ")"
  | T_bag t -> "Bag(" ^ ty_to_string t ^ ")"
  | T_any -> "OclAny"

let rec conforms a b =
  match (a, b) with
  | T_any, _ | _, T_any -> true
  | T_integer, T_real -> true
  | T_element _, T_element None | T_element None, T_element _ -> true
  | T_element (Some x), T_element (Some y) -> String.equal x y
  | T_set x, T_set y | T_seq x, T_seq y | T_bag x, T_bag y -> conforms x y
  | _, _ -> a = b

type diagnostic = {
  message : string;
  subject : string;
}

let pp_diagnostic ppf d = Format.fprintf ppf "%s (in %s)" d.message d.subject

(* Result type of a meta-property, per metaclass. *)
let property_type metaclass name =
  let common = function
    | "name" | "qualifiedName" | "metaclass" -> Some T_string
    | "stereotypes" | "tagKeys" -> Some (T_set T_string)
    | "owner" -> Some (T_element None)
    | _ -> None
  in
  let specific =
    match (metaclass, name) with
    | "Package", "ownedElements" -> Some (T_seq (T_element None))
    | "Class", "attributes" -> Some (T_seq (T_element (Some "Attribute")))
    | "Class", ("operations" | "allOperations") ->
        Some (T_seq (T_element (Some "Operation")))
    | "Class", ("supers" | "allSupers") -> Some (T_set (T_element (Some "Class")))
    | "Class", "interfaces" -> Some (T_set (T_element (Some "Interface")))
    | "Class", "isAbstract" -> Some T_boolean
    | "Interface", "operations" -> Some (T_seq (T_element (Some "Operation")))
    | "Interface", "realizers" -> Some (T_set (T_element (Some "Class")))
    | "Attribute", ("type" | "visibility") -> Some T_string
    | "Attribute", ("lower" | "upper") -> Some T_integer
    | "Attribute", ("isDerived" | "isStatic") -> Some T_boolean
    | "Attribute", "initial" -> Some T_string
    | "Operation", "parameters" -> Some (T_seq (T_element (Some "Parameter")))
    | "Operation", ("visibility" | "resultType") -> Some T_string
    | "Operation", ("isQuery" | "isAbstract" | "isStatic") -> Some T_boolean
    | "Operation", "class" -> Some (T_element (Some "Class"))
    | "Parameter", ("type" | "direction") -> Some T_string
    | "Association", "endTypes" -> Some (T_seq (T_element None))
    | "Association", "endNames" -> Some (T_seq T_string)
    | "Generalization", ("child" | "parent") -> Some (T_element (Some "Class"))
    | "Dependency", ("client" | "supplier") -> Some (T_element None)
    | "Constraint", ("body" | "language") -> Some T_string
    | "Constraint", "constrained" -> Some (T_seq (T_element None))
    | "Enumeration", "literals" -> Some (T_seq T_string)
    | _, _ -> None
  in
  match common name with Some t -> Some t | None -> specific

let element_type_of_collection = function
  | T_set t | T_seq t | T_bag t -> Some t
  | T_any -> Some T_any
  | _ -> None

let is_numeric = function T_integer | T_real | T_any -> true | _ -> false

type state = { mutable diags : diagnostic list }

let report st expr fmt =
  Format.kasprintf
    (fun message -> st.diags <- { message; subject = Ast.to_string expr } :: st.diags)
    fmt

type tenv = (string * ty) list

let rec infer_expr st (env : tenv) self_ty (e : Ast.t) : ty =
  match e with
  | Ast.E_int _ -> T_integer
  | Ast.E_real _ -> T_real
  | Ast.E_string _ -> T_string
  | Ast.E_bool _ -> T_boolean
  | Ast.E_self -> self_ty
  | Ast.E_var v -> (
      match List.assoc_opt v env with
      | Some t -> t
      | None ->
          report st e "unbound variable %s" v;
          T_any)
  | Ast.E_collection (kind, items) ->
      let ts = List.map (infer_expr st env self_ty) items in
      let elem =
        match ts with
        | [] -> T_any
        | first :: rest ->
            List.fold_left (fun acc t -> if conforms t acc && conforms acc t then acc else T_any) first rest
      in
      (match kind with
      | Ast.Ck_set -> T_set elem
      | Ast.Ck_sequence -> T_seq elem
      | Ast.Ck_bag -> T_bag elem)
  | Ast.E_if (c, t, f) ->
      let tc = infer_expr st env self_ty c in
      if not (conforms tc T_boolean) then
        report st e "if condition has type %s, expected Boolean" (ty_to_string tc);
      let tt = infer_expr st env self_ty t in
      let tf = infer_expr st env self_ty f in
      if conforms tt tf then tf else if conforms tf tt then tt else T_any
  | Ast.E_let (v, bound, body) ->
      let tb = infer_expr st env self_ty bound in
      infer_expr st ((v, tb) :: env) self_ty body
  | Ast.E_not e' ->
      let t = infer_expr st env self_ty e' in
      if not (conforms t T_boolean) then
        report st e "not expects Boolean, found %s" (ty_to_string t);
      T_boolean
  | Ast.E_neg e' ->
      let t = infer_expr st env self_ty e' in
      if not (is_numeric t) then
        report st e "unary minus expects a number, found %s" (ty_to_string t);
      t
  | Ast.E_binop (op, a, b) -> infer_binop st env self_ty e op a b
  | Ast.E_prop (recv, name) -> infer_prop st env self_ty e recv name
  | Ast.E_call (recv, name, args) -> infer_call st env self_ty e recv name args
  | Ast.E_coll_op (recv, name, args) ->
      infer_coll_op st env self_ty e recv name args
  | Ast.E_iter (recv, name, vars, body) ->
      infer_iter st env self_ty e recv name vars body
  | Ast.E_iterate (recv, v, acc, init, body) ->
      let tr = infer_expr st env self_ty recv in
      let elem =
        match element_type_of_collection tr with
        | Some t -> t
        | None ->
            report st e "iterate expects a collection, found %s" (ty_to_string tr);
            T_any
      in
      let tinit = infer_expr st env self_ty init in
      infer_expr st ((v, elem) :: (acc, tinit) :: env) self_ty body
  | Ast.E_probe_exists_name (_, _, orig)
  | Ast.E_probe_select_name (_, _, orig)
  | Ast.E_probe_forall_guard (_, _, _, _, orig) ->
      (* planner IR is typed as the surface expression it replaced; the
         checker normally sees only raw parser output anyway *)
      infer_expr st env self_ty orig

and infer_binop st env self_ty e op a b =
  let ta = infer_expr st env self_ty a in
  let tb = infer_expr st env self_ty b in
  match op with
  | Ast.Op_and | Ast.Op_or | Ast.Op_xor | Ast.Op_implies ->
      if not (conforms ta T_boolean) then
        report st e "%s expects Boolean operands, found %s" (Ast.binop_name op)
          (ty_to_string ta);
      if not (conforms tb T_boolean) then
        report st e "%s expects Boolean operands, found %s" (Ast.binop_name op)
          (ty_to_string tb);
      T_boolean
  | Ast.Op_eq | Ast.Op_neq ->
      if not (conforms ta tb || conforms tb ta) then
        report st e "comparing unrelated types %s and %s" (ty_to_string ta)
          (ty_to_string tb);
      T_boolean
  | Ast.Op_lt | Ast.Op_gt | Ast.Op_le | Ast.Op_ge ->
      let ordered t = is_numeric t || conforms t T_string in
      if not (ordered ta && ordered tb) then
        report st e "%s expects numbers or strings, found %s and %s"
          (Ast.binop_name op) (ty_to_string ta) (ty_to_string tb);
      T_boolean
  | Ast.Op_add ->
      if conforms ta T_string && conforms tb T_string then T_string
      else if is_numeric ta && is_numeric tb then
        if ta = T_real || tb = T_real then T_real
        else if ta = T_any || tb = T_any then T_any
        else T_integer
      else (
        report st e "+ expects two numbers or two strings, found %s and %s"
          (ty_to_string ta) (ty_to_string tb);
        T_any)
  | Ast.Op_sub | Ast.Op_mul ->
      if not (is_numeric ta && is_numeric tb) then
        report st e "%s expects numeric operands, found %s and %s"
          (Ast.binop_name op) (ty_to_string ta) (ty_to_string tb);
      if ta = T_real || tb = T_real then T_real
      else if ta = T_any || tb = T_any then T_any
      else T_integer
  | Ast.Op_div ->
      if not (is_numeric ta && is_numeric tb) then
        report st e "/ expects numeric operands, found %s and %s"
          (ty_to_string ta) (ty_to_string tb);
      T_real
  | Ast.Op_idiv | Ast.Op_mod ->
      if not (conforms ta T_integer && conforms tb T_integer) then
        report st e "%s expects Integer operands, found %s and %s"
          (Ast.binop_name op) (ty_to_string ta) (ty_to_string tb);
      T_integer

and infer_prop st env self_ty e recv name =
  let tr = infer_expr st env self_ty recv in
  match tr with
  | T_element (Some mc) -> (
      match property_type mc name with
      | Some t -> t
      | None ->
          report st e "metaclass %s has no property %s" mc name;
          T_any)
  | T_element None | T_any -> (
      (* metaclass unknown: accept any property name that exists somewhere *)
      let known =
        List.exists
          (fun mc -> property_type mc name <> None)
          ("Element" :: Mof.Kind.all_names)
        || property_type "Package" name <> None
      in
      match known with
      | true -> T_any
      | false ->
          report st e "no metaclass has a property named %s" name;
          T_any)
  | T_set elem | T_seq elem | T_bag elem -> (
      (* implicit collect; flattens one level *)
      let flat = function
        | T_set t | T_seq t | T_bag t -> t
        | t -> t
      in
      let wrap t = match tr with T_seq _ -> T_seq t | _ -> T_bag t in
      match elem with
      | T_element (Some mc) -> (
          match property_type mc name with
          | Some t -> wrap (flat t)
          | None ->
              report st e "metaclass %s has no property %s" mc name;
              wrap T_any)
      | T_element None | T_any -> wrap T_any
      | t ->
          report st e "cannot navigate property %s over %s elements" name
            (ty_to_string t);
          wrap T_any)
  | t ->
      report st e "%s has no property %s" (ty_to_string t) name;
      T_any

and infer_call st env self_ty e recv name args =
  match (recv, name, args) with
  | Ast.E_var c, "allInstances", [] when List.assoc_opt c env = None ->
      if Meta.is_metaclass c then T_set (T_element (Some c))
      else (
        report st e "unknown classifier %s in allInstances" c;
        T_set (T_element None))
  | _, ("oclIsKindOf" | "oclIsTypeOf"), [ Ast.E_var ty_name ] ->
      ignore (infer_expr st env self_ty recv);
      if
        not
          (Meta.is_metaclass ty_name
          || List.mem ty_name [ "Boolean"; "Integer"; "Real"; "String" ])
      then report st e "unknown type %s" ty_name;
      T_boolean
  | _, "oclAsType", [ Ast.E_var ty_name ] ->
      ignore (infer_expr st env self_ty recv);
      if Meta.is_metaclass ty_name then T_element (Some ty_name)
      else (
        (match ty_name with
        | "Boolean" | "Integer" | "Real" | "String" -> ()
        | _ -> report st e "unknown type %s" ty_name);
        match ty_name with
        | "Boolean" -> T_boolean
        | "Integer" -> T_integer
        | "Real" -> T_real
        | "String" -> T_string
        | _ -> T_any)
  | _, _, _ -> (
      let tr = infer_expr st env self_ty recv in
      let targs = List.map (infer_expr st env self_ty) args in
      let arity = List.length args in
      let expect_args expected =
        if not (List.for_all2 conforms targs expected) then
          report st e "%s: argument type mismatch" name
      in
      match (tr, name, arity) with
      | _, "oclIsUndefined", 0 -> T_boolean
      | T_string, "size", 0 -> T_integer
      | T_string, ("toUpper" | "toLower"), 0 -> T_string
      | T_string, "concat", 1 ->
          expect_args [ T_string ];
          T_string
      | T_string, "substring", 2 ->
          expect_args [ T_integer; T_integer ];
          T_string
      | T_string, ("contains" | "startsWith" | "endsWith"), 1 ->
          expect_args [ T_string ];
          T_boolean
      | T_string, "toInteger", 0 -> T_integer
      | T_string, "toReal", 0 -> T_real
      | (T_integer | T_real), "abs", 0 -> tr
      | (T_integer | T_real), ("floor" | "round"), 0 -> T_integer
      | (T_integer | T_real), ("max" | "min"), 1 ->
          if not (List.for_all is_numeric targs) then
            report st e "%s expects a numeric argument" name;
          if tr = T_real || targs = [ T_real ] then T_real else tr
      | T_element _, ("hasStereotype" | "hasTag"), 1 ->
          expect_args [ T_string ];
          T_boolean
      | T_element _, "tag", 1 ->
          expect_args [ T_string ];
          T_string
      | T_any, _, _ -> T_any
      | _, _, _ ->
          report st e "%s has no operation %s/%d" (ty_to_string tr) name arity;
          T_any)

and infer_coll_op st env self_ty e recv name args =
  let tr = infer_expr st env self_ty recv in
  let targs = List.map (infer_expr st env self_ty) args in
  let elem =
    match element_type_of_collection tr with
    | Some t -> t
    | None ->
        report st e "->%s expects a collection, found %s" name (ty_to_string tr);
        T_any
  in
  let arity = List.length args in
  match (name, arity) with
  | "size", 0 -> T_integer
  | ("isEmpty" | "notEmpty"), 0 -> T_boolean
  | ("includes" | "excludes" | "count"), 1 ->
      (match targs with
      | [ t ] when not (conforms t elem || conforms elem t) ->
          report st e "->%s argument type %s does not match element type %s"
            name (ty_to_string t) (ty_to_string elem)
      | _ -> ());
      if name = "count" then T_integer else T_boolean
  | ("includesAll" | "excludesAll"), 1 -> T_boolean
  | "sum", 0 ->
      if not (is_numeric elem) then
        report st e "->sum over non-numeric elements %s" (ty_to_string elem);
      elem
  | ("max" | "min"), 0 -> elem
  | ("first" | "last"), 0 -> elem
  | "at", 1 ->
      (match targs with
      | [ t ] when not (conforms t T_integer) ->
          report st e "->at expects an Integer index"
      | _ -> ());
      elem
  | "indexOf", 1 -> T_integer
  | "asSet", 0 -> T_set elem
  | "asSequence", 0 -> T_seq elem
  | "asBag", 0 -> T_bag elem
  | ("union" | "intersection"), 1 -> (
      match tr with
      | T_seq _ when name = "union" -> T_seq elem
      | _ -> T_set elem)
  | ("including" | "excluding"), 1 -> tr
  | ("append" | "prepend"), 1 -> T_seq elem
  | "reverse", 0 -> T_seq elem
  | "flatten", 0 -> (
      match elem with
      | T_set t | T_seq t | T_bag t -> (
          match tr with
          | T_seq _ -> T_seq t
          | T_bag _ -> T_bag t
          | _ -> T_set t)
      | _ -> tr)
  | _, _ ->
      report st e "unknown collection operation ->%s/%d" name arity;
      T_any

and infer_iter st env self_ty e recv name vars body =
  let tr = infer_expr st env self_ty recv in
  let elem =
    match element_type_of_collection tr with
    | Some t -> t
    | None ->
        report st e "->%s expects a collection, found %s" name (ty_to_string tr);
        T_any
  in
  let env' = List.map (fun v -> (v, elem)) vars @ env in
  let tbody = infer_expr st env' self_ty body in
  let boolean_body () =
    if not (conforms tbody T_boolean) then
      report st e "->%s body has type %s, expected Boolean" name
        (ty_to_string tbody)
  in
  if not (List.mem name Ast.iterator_names) then
    report st e "unknown iterator ->%s" name;
  if List.length vars > 1 && not (List.mem name [ "forAll"; "exists" ]) then
    report st e "->%s takes a single iterator variable" name;
  match name with
  | "forAll" | "exists" | "one" ->
      boolean_body ();
      T_boolean
  | "isUnique" -> T_boolean
  | "select" | "reject" ->
      boolean_body ();
      tr
  | "collect" -> (
      match tr with T_seq _ -> T_seq tbody | _ -> T_bag tbody)
  | "any" ->
      boolean_body ();
      elem
  | "sortedBy" -> T_seq elem
  | "closure" -> T_set elem
  | _ -> T_any

let infer ?self_type ?(vars = []) e =
  let st = { diags = [] } in
  let self_ty =
    match self_type with
    | Some mc -> T_element (Some mc)
    | None -> T_element None
  in
  let t = infer_expr st vars self_ty e in
  (t, List.rev st.diags)
