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

val fold_calls : ('a -> t option * string * t list -> 'a) -> 'a -> t -> 'a
(** Folds over every call node, outermost last. *)
