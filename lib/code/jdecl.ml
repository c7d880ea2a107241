type modifier =
  | M_public
  | M_private
  | M_protected
  | M_static
  | M_final
  | M_abstract
  | M_synchronized

let modifier_to_string = function
  | M_public -> "public"
  | M_private -> "private"
  | M_protected -> "protected"
  | M_static -> "static"
  | M_final -> "final"
  | M_abstract -> "abstract"
  | M_synchronized -> "synchronized"

type field = {
  field_name : string;
  field_type : Jtype.t;
  field_mods : modifier list;
  field_init : Jexpr.t option;
}

type param = {
  param_name : string;
  param_type : Jtype.t;
}

type method_ = {
  method_name : string;
  method_mods : modifier list;
  return_type : Jtype.t;
  params : param list;
  throws : string list;
  body : Jstmt.t list option;
}

type class_ = {
  class_name : string;
  class_mods : modifier list;
  extends : string option;
  implements : string list;
  fields : field list;
  methods : method_ list;
}

type interface_ = {
  iface_name : string;
  iface_extends : string list;
  iface_methods : method_ list;
}

type type_decl =
  | Class of class_
  | Interface of interface_

let find_method c name =
  List.find_opt (fun m -> String.equal m.method_name name) c.methods

let map_methods f c = { c with methods = List.map f c.methods }

let add_field field c =
  if List.exists (fun f -> String.equal f.field_name field.field_name) c.fields
  then c
  else { c with fields = c.fields @ [ field ] }

let add_method m c = { c with methods = c.methods @ [ m ] }
