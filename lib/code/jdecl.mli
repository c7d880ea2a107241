(** Declarations of the Java-like code model: fields, methods, classes, and
    interfaces. *)

type modifier =
  | M_public
  | M_private
  | M_protected
  | M_static
  | M_final
  | M_abstract
  | M_synchronized

val modifier_to_string : modifier -> string

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
  body : Jstmt.t list option;  (** [None] for abstract/interface methods *)
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
  iface_methods : method_ list;  (** bodies are [None] *)
}

type type_decl =
  | Class of class_
  | Interface of interface_

val find_method : class_ -> string -> method_ option
(** First method with the given name. *)

val map_methods : (method_ -> method_) -> class_ -> class_
(** Rewrites every method of a class. *)

val add_field : field -> class_ -> class_
(** Appends a field unless one with the same name exists. *)

val add_method : method_ -> class_ -> class_
(** Appends a method (no signature-clash check: weaving inter-type methods
    with a colliding name is the aspect author's error and surfaces in the
    printed output). *)
