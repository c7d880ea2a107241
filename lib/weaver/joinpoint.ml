type shadow =
  | Sh_execution of {
      class_name : string;
      method_name : string;
    }
  | Sh_call of {
      within_class : string;
      within_method : string;
      receiver_class : string option;
      method_name : string;
    }
  | Sh_field_set of {
      within_class : string;
      within_method : string;
      target_class : string;
      field_name : string;
    }

let describe = function
  | Sh_execution { class_name; method_name } ->
      Printf.sprintf "execution(%s.%s)" class_name method_name
  | Sh_call { receiver_class; method_name; _ } ->
      Printf.sprintf "call(%s.%s)"
        (Option.value ~default:"?" receiver_class)
        method_name
  | Sh_field_set { target_class; field_name; _ } ->
      Printf.sprintf "set(%s.%s)" target_class field_name

let enclosing_class = function
  | Sh_execution { class_name; _ } -> class_name
  | Sh_call { within_class; _ } -> within_class
  | Sh_field_set { within_class; _ } -> within_class

let execution_shadows program =
  List.concat_map
    (fun (c : Code.Jdecl.class_) ->
      List.filter_map
        (fun (m : Code.Jdecl.method_) ->
          match m.Code.Jdecl.body with
          | Some _ ->
              Some
                (Sh_execution
                   {
                     class_name = c.Code.Jdecl.class_name;
                     method_name = m.Code.Jdecl.method_name;
                   })
          | None -> None)
        c.Code.Jdecl.methods)
    (Code.Junit.classes program)

(* --- receiver-type resolution for call/set shadows ------------------- *)

type scope = {
  current_class : string;
  var_types : (string * string) list;  (* variable -> class name, when known *)
}

let class_of_jtype = function
  | Code.Jtype.T_named n -> Some n
  | _ -> None

let scope_of_method (c : Code.Jdecl.class_) (m : Code.Jdecl.method_) =
  let param_types =
    List.filter_map
      (fun (p : Code.Jdecl.param) ->
        Option.map
          (fun cls -> (p.Code.Jdecl.param_name, cls))
          (class_of_jtype p.Code.Jdecl.param_type))
      m.Code.Jdecl.params
  in
  let field_types =
    List.filter_map
      (fun (f : Code.Jdecl.field) ->
        Option.map
          (fun cls -> (f.Code.Jdecl.field_name, cls))
          (class_of_jtype f.Code.Jdecl.field_type))
      c.Code.Jdecl.fields
  in
  let local_types =
    List.fold_left
      (Code.Jstmt.fold (fun acc stmt ->
           match stmt with
           | Code.Jstmt.S_local (t, name, _) -> (
               match class_of_jtype t with
               | Some cls -> (name, cls) :: acc
               | None -> acc)
           | _ -> acc))
      []
      (Option.value ~default:[] m.Code.Jdecl.body)
  in
  {
    current_class = c.Code.Jdecl.class_name;
    var_types = param_types @ field_types @ local_types;
  }

let receiver_class scope = function
  | None -> Some scope.current_class (* unqualified call *)
  | Some Code.Jexpr.E_this -> Some scope.current_class
  | Some (Code.Jexpr.E_name v) -> List.assoc_opt v scope.var_types
  | Some (Code.Jexpr.E_field (Code.Jexpr.E_this, f)) ->
      List.assoc_opt f scope.var_types
  | Some (Code.Jexpr.E_new (c, _)) -> Some c
  | Some (Code.Jexpr.E_cast (t, _)) -> class_of_jtype t
  | Some _ -> None

(* Call shadows occurring anywhere inside an expression. *)
let call_shadows_in_expr scope ~within_method e =
  Code.Jexpr.fold_calls
    (fun acc (recv, name, _) ->
      if String.equal name "proceed" && recv = None then acc
      else
        Sh_call
          {
            within_class = scope.current_class;
            within_method;
            receiver_class = receiver_class scope recv;
            method_name = name;
          }
        :: acc)
    [] e

(* Field-set shadows occurring anywhere inside an expression, assignment
   targets included. *)
let field_set_shadows_in_expr scope ~within_method e =
  Code.Jexpr.fold_assigns
    (fun acc (lhs, _) ->
      let target =
        match lhs with
        | Code.Jexpr.E_field (Code.Jexpr.E_this, f) ->
            Some (scope.current_class, f)
        | Code.Jexpr.E_field (Code.Jexpr.E_name v, f) ->
            Option.map (fun cls -> (cls, f)) (List.assoc_opt v scope.var_types)
        | _ -> None
      in
      match target with
      | Some (target_class, field_name) ->
          Sh_field_set
            {
              within_class = scope.current_class;
              within_method;
              target_class;
              field_name;
            }
          :: acc
      | None -> acc)
    [] e

let expr_shadows scope ~within_method e =
  call_shadows_in_expr scope ~within_method e
  @ field_set_shadows_in_expr scope ~within_method e

let statement_shadows scope ~within_method stmt =
  match Code.Jstmt.direct_expr stmt with
  | Some e -> expr_shadows scope ~within_method e
  | None -> []

let shadows_of_method (c : Code.Jdecl.class_) (m : Code.Jdecl.method_) =
  match m.Code.Jdecl.body with
  | None -> []
  | Some body ->
      let scope = scope_of_method c m in
      let within_method = m.Code.Jdecl.method_name in
      let shadows =
        List.fold_left
          (Code.Jstmt.fold_expr (fun acc e ->
               List.rev_append (expr_shadows scope ~within_method e) acc))
          [] body
      in
      Sh_execution
        {
          class_name = c.Code.Jdecl.class_name;
          method_name = m.Code.Jdecl.method_name;
        }
      :: List.rev shadows

let shadows_of_class (c : Code.Jdecl.class_) =
  List.concat_map (shadows_of_method c) c.Code.Jdecl.methods

let all_shadows program =
  List.concat_map shadows_of_class (Code.Junit.classes program)
