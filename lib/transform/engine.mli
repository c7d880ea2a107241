(** The transformation engine: checked application of concrete
    transformations, and refinement sessions accumulating a trace.

    One application runs the paper's full refinement step:
    + evaluate the specialized preconditions on the input model,
    + run the rewrite,
    + evaluate the specialized postconditions on the output model,
    + compute the diff (replayed from the model's update journal, O(changes)),
    + re-check structural well-formedness on the touched region
      ({!Mof.Wellformed.check_touched}),
    + extend the trace.

    Each check can be disabled (the [ablation/precheck] experiment measures
    what the checks cost). *)

(** Why an application was refused. The model is never left in a broken
    state: failures return the input model untouched. *)
type failure =
  | Precondition_failed of (string * Ocl.Constraint_.outcome) list
      (** failed precondition names with their outcomes *)
  | Postcondition_failed of (string * Ocl.Constraint_.outcome) list
  | Not_wellformed of Mof.Wellformed.violation list
      (** the rewrite broke structural well-formedness *)
  | Rewrite_failed of string

val pp_failure : Format.formatter -> failure -> unit

(** Options controlling which checks run. *)
type checks = {
  check_pre : bool;
  check_post : bool;
  check_wf : bool;
      (** re-validate the elements the rewrite touched (journal diff →
          {!Mof.Wellformed.check_touched}). That reports exactly what the
          whole-model {!Mof.Wellformed.check} would whenever the input
          model was well-formed — which {!apply} has already guaranteed
          for every model it produced; the [wf] oracle holds the two to
          that. *)
}

val all_checks : checks
(** Everything on (the default). *)

val no_checks : checks

(** Result of one successful application. *)
type outcome = {
  model : Mof.Model.t;
  diff : Mof.Diff.t;
  report : Report.t;
}

val apply :
  ?checks:checks -> Cmt.t -> Mof.Model.t -> (outcome, failure) result
(** Applies one concrete transformation (checks default to {!all_checks}). *)

(** A refinement session: the current model plus the trace of applied
    transformations. *)
type session = {
  initial : Mof.Model.t;
  current : Mof.Model.t;
  trace : Trace.t;
  applied : Cmt.t list;  (** application order *)
  reports : Report.t list;  (** application order *)
}

val start : Mof.Model.t -> session

val step :
  ?checks:checks -> session -> Cmt.t -> (session, failure) result
(** Applies a transformation to the session's current model and extends the
    trace. On failure the session is unchanged. *)

val run :
  ?checks:checks -> Mof.Model.t -> Cmt.t list -> (session, string * failure) result
(** Applies a whole sequence; stops at the first failure, reporting the
    offending transformation's concrete name. *)
