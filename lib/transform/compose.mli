(** Sequential composition of generic transformations.

    The paper leaves open "how several concerns can be composed"; this
    module provides the sequential answer: a composite GMT that applies a
    list of member GMTs in order, against one merged parameter set.

    Formal parameters are merged by name: two members may *share* a
    parameter (same name, same type) — the one-parameter-set idea extended
    across concerns — but a same-named parameter with a different type is a
    composition error.

    Conditions: the composite's declared preconditions are the first
    member's (they constrain the input model, which is all that can be
    promised statically) and its postconditions are the last member's.
    Every member's own pre/postconditions are still checked *during* the
    composite rewrite against the intermediate models; a violation aborts
    the rewrite (surfacing as {!Engine.Rewrite_failed}), so a composite is
    never applied half-way. *)

val sequence :
  name:string -> concern:string -> Gmt.t list -> (Gmt.t, string) result
(** [sequence ~name ~concern gmts] is the composite transformation, or an
    error for an empty list or conflicting formals. *)
