(** Expressions of the Java-like code model. *)

type t =
  | E_null
  | E_this
  | E_bool of bool
  | E_int of int
  | E_double of float
  | E_string of string  (** a string literal (unquoted contents) *)
  | E_name of string  (** local, parameter, or unqualified field *)
  | E_field of t * string  (** [recv.field] *)
  | E_call of t option * string * t list
      (** [recv.m(args)]; [None] receiver is an unqualified call *)
  | E_new of string * t list  (** [new C(args)] *)
  | E_binary of string * t * t  (** operator text, e.g. ["+"], ["&&"] *)
  | E_unary of string * t  (** prefix operator, e.g. ["!"] *)
  | E_assign of t * t
  | E_cast of Jtype.t * t
  | E_instanceof of t * string

(** {1 Traversals}

    The walks below are the only structural recursions over expressions
    outside the interpreter and the printer: a new constructor is handled
    here, and every caller follows. *)

val fold_calls : ('a -> t option * string * t list -> 'a) -> 'a -> t -> 'a
(** Folds over every call node, children first: a call's receiver, then
    its arguments in order, then the call itself, so the outermost call is
    last. *)

val fold_assigns : ('a -> t * t -> 'a) -> 'a -> t -> 'a
(** Folds over every assignment node [(target, value)], children first as
    {!fold_calls}: the target, then the value, then the assignment. The walk
    descends into targets, so [this.m(this.n = 0).f = 1] yields the inner
    assignment before the outer one. *)

val map : (t -> t) -> t -> t
(** Rebuilds the expression bottom-up: [f] is applied once to every node,
    after its children were rebuilt (so it sees their rewrites), meeting
    the nodes in {!fold_calls}'s order. *)
