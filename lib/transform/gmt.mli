(** Generic model transformations (the paper's GMT_Ci).

    A GMT bundles, for one concern dimension: the formal parameters P_ik, a
    model rewrite function, and generic OCL pre/postconditions that name
    the parameters as [$param$] variables, which a specialization binds
    ({!Cmt.env}). The rewrite is a pure function
    from a parameter set and a model to a new model — the engine computes
    the diff, checks conditions, and records the trace. *)

exception Rewrite_error of string
(** Raised by rewrite functions when the model, although passing the
    declared preconditions, cannot be transformed (an escape hatch for
    conditions that OCL cannot express). *)

val rewrite_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [rewrite_error fmt …] raises {!Rewrite_error} with a formatted
    message. *)

type t = {
  name : string;  (** e.g. ["T.distribution"] *)
  concern : string;  (** concern key, e.g. ["distribution"] *)
  description : string;
  formals : Params.decl list;
  preconditions : Ocl.Constraint_.t list;  (** generic, over [$param$]s *)
  postconditions : Ocl.Constraint_.t list;
  rewrite : Params.set -> Mof.Model.t -> Mof.Model.t;
}

val make :
  ?description:string ->
  ?preconditions:Ocl.Constraint_.t list ->
  ?postconditions:Ocl.Constraint_.t list ->
  name:string ->
  concern:string ->
  formals:Params.decl list ->
  (Params.set -> Mof.Model.t -> Mof.Model.t) ->
  t

val variable : string -> string
(** [variable p] is ["$p$"], the OCL variable through which conditions
    read parameter [p]. *)

val validate_conditions : t -> string list
(** Statically typechecks every pre/postcondition body, with each [$p$]
    typed by {!param_type} from its declaration, and returns the
    diagnostics: parse errors, undeclared parameters (unbound variables)
    and type errors. Run at registration
    time so that broken generic transformations are rejected before they
    ever touch a model. *)
