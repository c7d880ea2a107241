(** Named OCL constraints over models, with the contextual-instance
    semantics pre/postconditions need and the [$param$] substitution that
    turns a *generic* condition into a *concrete* one (the paper: "a
    configuration of a generic transformation … also specializes these
    conditions"). *)

type t = {
  name : string;
  context : string option;
      (** when [Some mc], the body is evaluated once per instance of
          metaclass [mc] with [self] bound; the constraint holds when the
          body holds for every instance. When [None], the body is evaluated
          once with no [self]. *)
  body : string;  (** OCL source text, possibly containing [$param$] holes *)
}

val make : ?context:string -> name:string -> string -> t
(** [make ~name body] is a constraint. *)

val substitute : (string * string) list -> t -> t
(** [substitute bindings c] replaces every [$key$] hole in the body by its
    binding. Unbound holes are left in place (they surface as parse or
    evaluation errors, which is intentional: a generic constraint must be
    fully specialized before checking). *)

val holes : t -> string list
(** The [$param$] hole names appearing in the body, in order, without
    duplicates. *)

(** Outcome of checking one constraint. *)
type outcome =
  | Holds
  | Fails of string list
      (** qualified names (or ids) of the instances violating the body;
          empty for a context-free constraint that fails *)
  | Ill_formed of string  (** parse or evaluation error *)

val check : Mof.Model.t -> t -> outcome
(** Evaluates the constraint against a model, through the compiled-body
    memo table ({!Compile}) and the planner-rewritten AST. *)

val check_naive : Mof.Model.t -> t -> outcome
(** The uncached baseline: re-parses the body and evaluates the raw AST
    (no planner probes). Must agree with {!check} on every model — the
    differential relation the [ocl] fuzz oracle enforces. *)

val holds : Mof.Model.t -> t -> bool
(** [holds m c] is [check m c = Holds]. *)

val pp_outcome : Format.formatter -> outcome -> unit
