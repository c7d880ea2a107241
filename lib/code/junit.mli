(** Compilation units and programs (sets of units). *)

type t = {
  package : string;
  imports : string list;
  decls : Jdecl.type_decl list;
}

type program = t list

val unit_ : ?imports:string list -> package:string -> Jdecl.type_decl list -> t

val find_class : program -> string -> Jdecl.class_ option
(** First class with the given simple name, across all units in order;
    interfaces are skipped. O(classes): it walks the units and their
    declarations in place and allocates nothing but the returned option. *)

val find_interface : program -> string -> Jdecl.interface_ option

val classes : program -> Jdecl.class_ list
val interfaces : program -> Jdecl.interface_ list

val update_class : program -> string -> (Jdecl.class_ -> Jdecl.class_) -> program
(** Rewrites the named class wherever it appears (identity if absent). *)

val map_classes : (Jdecl.class_ -> Jdecl.class_) -> program -> program

val total_methods : program -> int
(** Number of method declarations, a cheap size metric for reports. *)

val equal : program -> program -> bool
