(** The pointcut language: predicates over join-point shadows.

    The join-point model (see {!Weaver.Joinpoint}) has three shadow kinds —
    method executions, method calls, and field assignments — matching the
    AspectJ constructs the paper's middleware concerns need. *)

type t =
  | Execution of Pattern.method_pattern  (** execution(C.m) *)
  | Call of Pattern.method_pattern  (** call(C.m) — C is the receiver's class *)
  | Set_field of Pattern.t * Pattern.t  (** set(C.f) *)
  | Within of Pattern.t  (** within(C) — shadow lexically inside class C *)
  | And of t * t
  | Or of t * t
  | Not of t

val execution : string -> string -> t
(** [execution "Account" "set*"]. *)

val call : string -> string -> t
val set_field : string -> string -> t
val within : string -> t

val to_string : t -> string
(** AspectJ-like rendering, e.g.
    ["execution(Account.set*) && !within(AccountProxy)"]. *)
