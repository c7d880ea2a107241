type dt =
  | D_void
  | D_boolean
  | D_integer
  | D_real
  | D_string
  | D_ref of int
  | D_collection of dt

type op =
  | Add_package of { owner : int; name : string }
  | Add_class of { owner : int; name : string; abstract : bool }
  | Add_interface of { owner : int; name : string }
  | Add_attribute of {
      cls : int;
      name : string;
      typ : dt;
      static : bool;
      initial : string option;
    }
  | Add_operation of { owner : int; name : string; abstract : bool; query : bool }
  | Add_parameter of { op : int; name : string; typ : dt }
  | Set_result of { op : int; typ : dt }
  | Add_generalization of { child : int; parent : int }
  | Add_realization of { cls : int; iface : int }
  | Add_association of { owner : int; name : string; from_ : int; to_ : int }
  | Add_enumeration of { owner : int; name : string; literals : string list }
  | Add_constraint of {
      owner : int;
      name : string;
      constrained : int list;
      body : string;
    }
  | Add_stereotype of { target : int; stereotype : string }
  | Remove_stereotype of { target : int; stereotype : string }
  | Set_tag of { target : int; key : string; value : string }
  | Remove_tag of { target : int; key : string }
  | Rename of { target : int; name : string }
  | Delete of { target : int }

type script = op list

(* Slots bound so far, newest last. Ids of deleted elements stay in the
   table; ops aimed at them fail element lookup and are skipped. *)
type slots = { mutable bound : Mof.Id.t array; mutable len : int }

let slots_make root =
  { bound = Array.make 16 root; len = 1 }

let slots_get s i = if i >= 0 && i < s.len then Some s.bound.(i) else None

let slots_push s id =
  if s.len = Array.length s.bound then begin
    let bigger = Array.make (2 * s.len) id in
    Array.blit s.bound 0 bigger 0 s.len;
    s.bound <- bigger
  end;
  s.bound.(s.len) <- id;
  s.len <- s.len + 1

let rec resolve_dt slots = function
  | D_void -> Some Mof.Kind.Dt_void
  | D_boolean -> Some Mof.Kind.Dt_boolean
  | D_integer -> Some Mof.Kind.Dt_integer
  | D_real -> Some Mof.Kind.Dt_real
  | D_string -> Some Mof.Kind.Dt_string
  | D_ref slot -> Option.map (fun id -> Mof.Kind.Dt_ref id) (slots_get slots slot)
  | D_collection d ->
      Option.map (fun d -> Mof.Kind.Dt_collection d) (resolve_dt slots d)

let apply_slots slots m script =
  let step m op =
    (* unresolved slots and metamodel-invalid requests make the op a no-op;
       the builder's own exceptions are the authoritative applicability
       check, so a bare try covers every case uniformly *)
    try
      match op with
      | Add_package { owner; name } -> (
          match slots_get slots owner with
          | None -> m
          | Some owner ->
              let m, id = Mof.Builder.add_package m ~owner ~name in
              slots_push slots id;
              m)
      | Add_class { owner; name; abstract } -> (
          match slots_get slots owner with
          | None -> m
          | Some owner ->
              let m, id =
                Mof.Builder.add_class ~is_abstract:abstract m ~owner ~name
              in
              slots_push slots id;
              m)
      | Add_interface { owner; name } -> (
          match slots_get slots owner with
          | None -> m
          | Some owner ->
              let m, id = Mof.Builder.add_interface m ~owner ~name in
              slots_push slots id;
              m)
      | Add_attribute { cls; name; typ; static; initial } -> (
          match (slots_get slots cls, resolve_dt slots typ) with
          | Some cls, Some typ ->
              let m, id =
                Mof.Builder.add_attribute ?initial ~is_static:static m ~cls
                  ~name ~typ
              in
              slots_push slots id;
              m
          | _ -> m)
      | Add_operation { owner; name; abstract; query } -> (
          match slots_get slots owner with
          | None -> m
          | Some owner ->
              let m, id =
                Mof.Builder.add_operation ~is_abstract:abstract ~is_query:query
                  m ~owner ~name
              in
              slots_push slots id;
              m)
      | Add_parameter { op; name; typ } -> (
          match (slots_get slots op, resolve_dt slots typ) with
          | Some op, Some typ ->
              let m, id = Mof.Builder.add_parameter m ~op ~name ~typ in
              slots_push slots id;
              m
          | _ -> m)
      | Set_result { op; typ } -> (
          match (slots_get slots op, resolve_dt slots typ) with
          | Some op, Some typ -> Mof.Builder.set_result m ~op ~typ
          | _ -> m)
      | Add_generalization { child; parent } -> (
          match (slots_get slots child, slots_get slots parent) with
          | Some child, Some parent ->
              let m, id = Mof.Builder.add_generalization m ~child ~parent in
              slots_push slots id;
              m
          | _ -> m)
      | Add_realization { cls; iface } -> (
          match (slots_get slots cls, slots_get slots iface) with
          | Some cls, Some iface -> Mof.Builder.add_realization m ~cls ~iface
          | _ -> m)
      | Add_association { owner; name; from_; to_ } -> (
          match (slots_get slots owner, slots_get slots from_, slots_get slots to_)
          with
          | Some owner, Some a, Some b ->
              let end_ name ty =
                {
                  Mof.Kind.end_name = name;
                  end_type = ty;
                  end_mult = Mof.Kind.mult_many;
                  end_navigable = true;
                  end_aggregation = Mof.Kind.Ag_none;
                }
              in
              let m, id =
                Mof.Builder.add_association m ~owner ~name
                  ~ends:[ end_ "source" a; end_ "target" b ]
              in
              slots_push slots id;
              m
          | _ -> m)
      | Add_enumeration { owner; name; literals } -> (
          match slots_get slots owner with
          | None -> m
          | Some owner ->
              let m, id = Mof.Builder.add_enumeration m ~owner ~name ~literals in
              slots_push slots id;
              m)
      | Add_constraint { owner; name; constrained; body } -> (
          match slots_get slots owner with
          | None -> m
          | Some owner ->
              let constrained = List.filter_map (slots_get slots) constrained in
              let m, id =
                Mof.Builder.add_constraint m ~owner ~name ~constrained ~body
              in
              slots_push slots id;
              m)
      | Add_stereotype { target; stereotype } -> (
          match slots_get slots target with
          | None -> m
          | Some id -> Mof.Builder.add_stereotype m id stereotype)
      | Remove_stereotype { target; stereotype } -> (
          match slots_get slots target with
          | None -> m
          | Some id ->
              Mof.Model.update m id (Mof.Element.remove_stereotype stereotype))
      | Set_tag { target; key; value } -> (
          match slots_get slots target with
          | None -> m
          | Some id -> Mof.Builder.set_tag m id key value)
      | Remove_tag { target; key } -> (
          match slots_get slots target with
          | None -> m
          | Some id -> Mof.Model.update m id (Mof.Element.remove_tag key))
      | Rename { target; name } -> (
          match slots_get slots target with
          | None -> m
          | Some id -> Mof.Builder.rename m id name)
      | Delete { target } -> (
          match slots_get slots target with
          | None -> m
          | Some id ->
              if Mof.Id.equal id (Mof.Model.root m) then m
              else Mof.Builder.delete_element m id)
    with Mof.Builder.Builder_error _ | Mof.Model.Element_not_found _ -> m
  in
  List.fold_left step m script

let apply_with_slots m script =
  let slots = slots_make (Mof.Model.root m) in
  let m = apply_slots slots m script in
  (m, Array.sub slots.bound 0 slots.len)

let apply_from m ~slots script =
  let table = slots_make (Mof.Model.root m) in
  Array.iteri (fun i id -> if i > 0 then slots_push table id) slots;
  apply_slots table m script

(* ---- pretty printing ---------------------------------------------------- *)

let rec pp_dt ppf = function
  | D_void -> Format.pp_print_string ppf "void"
  | D_boolean -> Format.pp_print_string ppf "bool"
  | D_integer -> Format.pp_print_string ppf "int"
  | D_real -> Format.pp_print_string ppf "real"
  | D_string -> Format.pp_print_string ppf "string"
  | D_ref slot -> Format.fprintf ppf "ref:#%d" slot
  | D_collection d -> Format.fprintf ppf "coll(%a)" pp_dt d

let pp_op ppf = function
  | Add_package { owner; name } ->
      Format.fprintf ppf "add-package #%d %S" owner name
  | Add_class { owner; name; abstract } ->
      Format.fprintf ppf "add-class #%d %S%s" owner name
        (if abstract then " abstract" else "")
  | Add_interface { owner; name } ->
      Format.fprintf ppf "add-interface #%d %S" owner name
  | Add_attribute { cls; name; typ; static; initial } ->
      Format.fprintf ppf "add-attribute #%d %S : %a%s%s" cls name pp_dt typ
        (if static then " static" else "")
        (match initial with Some v -> Printf.sprintf " = %S" v | None -> "")
  | Add_operation { owner; name; abstract; query } ->
      Format.fprintf ppf "add-operation #%d %S%s%s" owner name
        (if abstract then " abstract" else "")
        (if query then " query" else "")
  | Add_parameter { op; name; typ } ->
      Format.fprintf ppf "add-parameter #%d %S : %a" op name pp_dt typ
  | Set_result { op; typ } -> Format.fprintf ppf "set-result #%d %a" op pp_dt typ
  | Add_generalization { child; parent } ->
      Format.fprintf ppf "add-generalization #%d -> #%d" child parent
  | Add_realization { cls; iface } ->
      Format.fprintf ppf "add-realization #%d -> #%d" cls iface
  | Add_association { owner; name; from_; to_ } ->
      Format.fprintf ppf "add-association #%d %S #%d--#%d" owner name from_ to_
  | Add_enumeration { owner; name; literals } ->
      Format.fprintf ppf "add-enumeration #%d %S {%s}" owner name
        (String.concat "," (List.map (Printf.sprintf "%S") literals))
  | Add_constraint { owner; name; constrained; body } ->
      Format.fprintf ppf "add-constraint #%d %S on [%s] body %S" owner name
        (String.concat ";" (List.map (Printf.sprintf "#%d") constrained))
        body
  | Add_stereotype { target; stereotype } ->
      Format.fprintf ppf "add-stereotype #%d %S" target stereotype
  | Remove_stereotype { target; stereotype } ->
      Format.fprintf ppf "remove-stereotype #%d %S" target stereotype
  | Set_tag { target; key; value } ->
      Format.fprintf ppf "set-tag #%d %S = %S" target key value
  | Remove_tag { target; key } ->
      Format.fprintf ppf "remove-tag #%d %S" target key
  | Rename { target; name } -> Format.fprintf ppf "rename #%d %S" target name
  | Delete { target } -> Format.fprintf ppf "delete #%d" target

let pp ppf script =
  List.iteri
    (fun i op -> Format.fprintf ppf "%3d. %a@." i pp_op op)
    script

let to_string script = Format.asprintf "%a" pp script
