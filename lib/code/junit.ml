type t = {
  package : string;
  imports : string list;
  decls : Jdecl.type_decl list;
}

type program = t list

let unit_ ?(imports = []) ~package decls = { package; imports; decls }

let classes program =
  List.concat_map
    (fun u ->
      List.filter_map
        (function Jdecl.Class c -> Some c | Jdecl.Interface _ -> None)
        u.decls)
    program

let interfaces program =
  List.concat_map
    (fun u ->
      List.filter_map
        (function Jdecl.Interface i -> Some i | Jdecl.Class _ -> None)
        u.decls)
    program

let rec find_class_in_units name = function
  | [] -> None
  | u :: units -> find_class_in_decls name units u.decls

and find_class_in_decls name units = function
  | Jdecl.Class c :: _ when String.equal c.Jdecl.class_name name -> Some c
  | _ :: decls -> find_class_in_decls name units decls
  | [] -> find_class_in_units name units

let find_class program name = find_class_in_units name program

let update_class program name f =
  List.map
    (fun u ->
      {
        u with
        decls =
          List.map
            (fun d ->
              match d with
              | Jdecl.Class c when String.equal c.Jdecl.class_name name ->
                  Jdecl.Class (f c)
              | Jdecl.Class _ | Jdecl.Interface _ -> d)
            u.decls;
      })
    program

let map_classes f program =
  List.map
    (fun u ->
      {
        u with
        decls =
          List.map
            (fun d ->
              match d with
              | Jdecl.Class c -> Jdecl.Class (f c)
              | Jdecl.Interface _ -> d)
            u.decls;
      })
    program

let total_methods program =
  List.fold_left
    (fun acc c -> acc + List.length c.Jdecl.methods)
    (List.fold_left
       (fun acc i -> acc + List.length i.Jdecl.iface_methods)
       0 (interfaces program))
    (classes program)

let equal (a : program) (b : program) = a = b
