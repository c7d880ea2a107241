(** Human-readable rendering of models as indented trees. *)

val datatype : Model.t -> Format.formatter -> Kind.datatype -> unit
(** Renders a datatype using classifier names, e.g. ["Account"] for a
    [Dt_ref], ["Set(Integer)"] for a collection. *)

val model_to_string : Model.t -> string
