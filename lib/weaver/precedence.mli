(** Aspect precedence.

    The paper fixes precedence by construction: "The order in which
    specialized/concrete aspects will be applied at code level (their
    precedence) is dictated by the order in which the specialized/concrete
    model transformations were applied at model level." Generated aspects
    carry the sequence number of their source transformation; a lower
    sequence number means higher precedence — its advice ends up outermost
    at shared join points. *)

val order : Aspects.Generator.generated list -> Aspects.Generator.generated list
(** Sorted by ascending sequence number (highest precedence first);
    stable. *)

val explain : Aspects.Generator.generated list -> string
(** Human-readable precedence listing. *)
