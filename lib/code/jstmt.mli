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

val map_expr : (Jexpr.t -> Jexpr.t) -> t -> t
(** Rewrites every expression in the statement, recursively. *)

val fold_expr : ('a -> Jexpr.t -> 'a) -> 'a -> t -> 'a
(** Folds over every top-level expression position in the statement tree
    (initializers, conditions, returns, …), recursively through nested
    statements. *)
