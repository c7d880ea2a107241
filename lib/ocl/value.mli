(** Runtime values of the OCL evaluator.

    Numbers follow OCL's conformance rule: [Integer] conforms to [Real], so
    [1 = 1.0] holds and mixed arithmetic promotes to [Real]. Sets and bags
    are kept in canonical (sorted, for sets deduplicated) order so that
    structural equality is meaningful. [V_undefined] is OclUndefined and
    propagates through most operations. *)

type t =
  | V_bool of bool
  | V_int of int
  | V_real of float
  | V_string of string
  | V_elem of Mof.Id.t  (** a model element *)
  | V_set of t list  (** canonical: sorted, no duplicates *)
  | V_seq of t list
  | V_bag of t list  (** canonical: sorted *)
  | V_undefined

val compare : t -> t -> int
(** Total order used for canonicalisation; numerically coherent across
    [V_int]/[V_real]. *)

val equal : t -> t -> bool
(** OCL equality: numeric across int/real, structural elsewhere. *)

val set : t list -> t
(** [set items] is a canonical [V_set]. *)

val seq : t list -> t
val bag : t list -> t
(** [bag items] is a canonical [V_bag]. *)

val of_string : string -> t

val items : t -> t list option
(** The elements of a collection value, [None] for scalars. *)

val type_name : t -> string
(** OCL type name of a value: ["Boolean"], ["Integer"], …, ["OclUndefined"].
    Elements answer ["Element"] (their metaclass is model-dependent). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
