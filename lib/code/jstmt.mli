(** Statements of the Java-like code model. *)

type t =
  | S_expr of Jexpr.t
  | S_local of Jtype.t * string * Jexpr.t option
      (** local variable declaration with optional initializer *)
  | S_return of Jexpr.t option
  | S_if of Jexpr.t * t list * t list  (** else branch may be empty *)
  | S_while of Jexpr.t * t list
  | S_throw of Jexpr.t
  | S_try of t list * (Jtype.t * string * t list) list * t list
      (** try / catch clauses / finally (may be empty) *)
  | S_sync of Jexpr.t * t list  (** synchronized (e) { … } *)
  | S_comment of string  (** a line comment, kept in the tree *)
  | S_block of t list

(** {1 Traversals}

    The walks below are the only structural recursions over statements
    outside the interpreter and the printer: a new statement kind is
    handled here, and every caller follows. *)

val map_bodies : (t list -> t list) -> t -> t
(** Applies [f] to each statement list the statement holds directly: both
    branches of an [if], a loop or lock body, a try block, each catch
    clause's body and the finally block, a block's statements. A statement
    that holds none is returned as it is. [f] decides whether to descend
    further, so [map_bodies (List.map g)] with a recursive [g] rewrites a
    whole tree. The order of [f]'s calls is OCaml's evaluation order of a
    constructor's arguments, which the language leaves unspecified; the
    weaver's application report follows it within a statement. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Folds over the statement and every statement nested in it, each before
    the statements it holds, in program order (then before else, try block
    before catch clauses before finally). *)

val direct_expr : t -> Jexpr.t option
(** The one expression the statement holds itself, not through a nested
    statement: an expression statement's, an initializer, a returned or
    thrown value, an [if] or loop condition, a lock. Every expression of a
    body is the direct expression of exactly one statement. *)

val map_expr : (Jexpr.t -> Jexpr.t) -> t -> t
(** Rewrites every direct expression in the statement tree with [f] (which
    decides whether to descend into subexpressions, e.g. {!Jexpr.map}). *)

val fold_expr : ('a -> Jexpr.t -> 'a) -> 'a -> t -> 'a
(** Folds over every direct expression in the statement tree, in {!fold}'s
    order: a statement's own expression before those of the statements it
    holds. *)
