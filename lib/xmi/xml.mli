(** A small XML document model: the subset XMI interchange needs.

    Namespace prefixes are treated as part of names (["XMI.content"] is just
    a tag). Attribute order is preserved. *)

type t =
  | Elem of {
      tag : string;
      attrs : (string * string) list;
      children : t list;
    }
  | Text of string

val equal : t -> t -> bool
