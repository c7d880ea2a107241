(** Static checking of OCL expressions.

    The checker infers a type for every sub-expression and reports
    diagnostics for definite errors — unbound variables, unknown
    meta-properties, operand-type mismatches — without rejecting dynamically
    fine programs: wherever the static knowledge runs out ([T_any]), the
    checker stays silent. Transformation authors run it on generic
    constraints at registration time so that configuration errors surface
    before any model is touched. *)

(** Static types. *)
type ty =
  | T_boolean
  | T_integer
  | T_real
  | T_string
  | T_element of string option  (** [Some mc] when the metaclass is known *)
  | T_set of ty
  | T_seq of ty
  | T_bag of ty
  | T_any

type diagnostic = {
  message : string;
  subject : string;  (** rendering of the offending sub-expression *)
}

val pp_diagnostic : Format.formatter -> diagnostic -> unit

val infer :
  ?self_type:string -> ?vars:(string * ty) list -> Ast.t -> ty * diagnostic list
(** [infer ~self_type ~vars e] types [e] with
    [self : T_element (Some self_type)] and the free variables [vars] —
    a transformation's [$param$] names typed from their declarations. Any
    other free variable is diagnosed as unbound. Diagnostics come back in
    source order. *)
