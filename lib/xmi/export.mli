(** XMI export: models to interchange documents.

    The document follows the XMI 1.2 envelope ([XMI]/[XMI.header]/
    [XMI.content]) with one tag per metaclass. Containment is nesting;
    cross-references (supers, datatypes, constrained elements) are id-valued
    attributes. Stereotypes and tagged values become [Stereotype] and
    [TaggedValue] child nodes, so any element can carry them — the property
    the concern transformations rely on.

    The text is written straight into one buffer sized from the model; no
    document tree is built. *)

val to_string : Mof.Model.t -> string
(** Pretty-printed XMI text, including the XML declaration: two spaces of
    indent per level, one element per line, [Constraint.body] text inline. *)

val write_file : string -> Mof.Model.t -> unit
(** Writes {!to_string} to a file through {!Obs.write_file}: a temporary
    file renamed over the target. *)
