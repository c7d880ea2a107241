(** Named OCL constraints over models, with the contextual-instance
    semantics pre/postconditions need. A *generic* condition names its
    transformation parameters as [$param$] variables; one parameter set
    specializes it (the paper: "a configuration of a generic transformation
    … also specializes these conditions") by binding those variables in
    the [env] of {!check}, never by editing the body text, so a value is
    only ever data. *)

type t = private {
  name : string;
  context : string option;
      (** when [Some mc], the body is evaluated once per instance of
          metaclass [mc] with [self] bound; the constraint holds when the
          body holds for every instance. When [None], the body is evaluated
          once with no [self]. *)
  body : string;  (** OCL source text, possibly naming [$param$] variables *)
  ast : (Ast.t, string) result;
      (** the parsed body (what {!Typecheck} sees), or the parse/lexical
          error message *)
  planned : (Ast.t, string) result;  (** [ast] after {!Plan.optimize} *)
}

val make : ?context:string -> name:string -> string -> t
(** [make ~name body] is a constraint; the body is parsed and planned here,
    once. A body that does not parse still makes a constraint, one that
    checks as [Ill_formed]. *)

(** Outcome of checking one constraint. *)
type outcome =
  | Holds
  | Fails of string list
      (** qualified names (or ids) of the instances violating the body;
          empty for a context-free constraint that fails *)
  | Ill_formed of string  (** parse or evaluation error *)

val check : ?env:Env.t -> Mof.Model.t -> t -> outcome
(** Evaluates the planned body against a model under [env] (default
    {!Env.empty}), which binds the [$param$] variables. An unbound
    parameter is an evaluation error, so the outcome is [Ill_formed]. *)

val check_naive : ?env:Env.t -> Mof.Model.t -> t -> outcome
(** The baseline: evaluates the raw AST (no planner probes) under the same
    [env]. Must agree with {!check} on every model and environment — the
    differential relation the [ocl] fuzz oracle enforces. *)

val pp_outcome : Format.formatter -> outcome -> unit
