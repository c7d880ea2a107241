(** Abstract syntax of the OCL subset. *)

(** Kind of a collection literal or value. *)
type collection_kind =
  | Ck_set
  | Ck_sequence
  | Ck_bag

val collection_kind_name : collection_kind -> string

(** Binary operators, in increasing binding strength: implies; or/xor; and;
    relational; additive; multiplicative. *)
type binop =
  | Op_implies
  | Op_or
  | Op_xor
  | Op_and
  | Op_eq
  | Op_neq
  | Op_lt
  | Op_gt
  | Op_le
  | Op_ge
  | Op_add
  | Op_sub
  | Op_mul
  | Op_div
  | Op_idiv
  | Op_mod

val binop_name : binop -> string

type t =
  | E_int of int
  | E_real of float
  | E_string of string
  | E_bool of bool
  | E_self
  | E_var of string
      (** a variable; ["$name$"] is a transformation parameter, which only
          the evaluation environment binds *)
  | E_collection of collection_kind * t list
      (** [Set{...}], [Sequence{...}], [Bag{...}] *)
  | E_if of t * t * t
  | E_let of string * t * t
  | E_binop of binop * t * t
  | E_not of t
  | E_neg of t
  | E_prop of t * string  (** [e.name] — property navigation *)
  | E_call of t * string * t list  (** [e.name(args)] — operation call *)
  | E_coll_op of t * string * t list
      (** [e->name(args)] — collection operation with plain arguments *)
  | E_iter of t * string * string list * t
      (** [e->name(v1, v2 | body)] — iterator such as forAll/select/… *)
  | E_iterate of t * string * string * t * t
      (** [e->iterate(v; acc = init | body)] *)
  | E_probe_exists_name of string * t * t
      (** Planner IR, never produced by the parser:
          [K.allInstances()->exists(x | x.name = rhs)] rewritten to a
          name-index probe. Fields: classifier, [rhs], original
          expression (evaluated as fallback, printed, folded over). *)
  | E_probe_select_name of string * t * t
      (** Planner IR for [K.allInstances()->select(x | x.name = rhs)]. *)
  | E_probe_forall_guard of string * t * string * t * t
      (** Planner IR for
          [K.allInstances()->forAll(x | G->includes(x.name) implies body)]
          where the guard [G] is a literal collection of string constants
          or a variable other than [x] (such as a [$param$]): only
          elements whose name occurs in [G] can have a non-vacuous body
          (implies short-circuits on a false antecedent), so when [G]
          evaluates to a collection of strings the walk narrows to
          name-index probes of those names. Fields: classifier, guard,
          iterator variable, consequent body, original expression. *)

val iterator_names : string list
(** Names recognised as iterator operations. *)

val pp : Format.formatter -> t -> unit
(** Re-render an expression in OCL concrete syntax (fully parenthesised). *)

val to_string : t -> string

val fold_vars : (string -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every free or bound variable occurrence, in syntax order. *)
