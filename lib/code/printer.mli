(** Rendering of the code model as Java-like source text.

    Every function writes into one buffer, sized from the code model, and
    returns its contents; no intermediate line lists or strings are built.
    Multi-line results are lines joined by newlines, with no trailing
    newline. *)

val expr_to_string : Jexpr.t -> string

val stmt_to_string : ?indent:int -> Jstmt.t -> string
(** [indent] is the starting depth (default 0); two spaces per level. *)

val method_to_string : ?indent:int -> Jdecl.method_ -> string

val type_decl_to_string : Jdecl.type_decl -> string

val unit_to_string : Junit.t -> string
(** A full compilation unit: package, imports, declarations. *)

val program_to_string : Junit.program -> string
(** All units, separated by a [// file:] banner comment each. *)
