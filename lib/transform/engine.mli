(** The transformation engine: checked application of concrete
    transformations.

    One application runs the paper's full refinement step:
    + evaluate the specialized preconditions on the input model,
    + run the rewrite,
    + evaluate the specialized postconditions on the output model,
    + compute the diff ({!Mof.Diff.compute}, which walks only what the
      rewrite did not share with the input),
    + re-check structural well-formedness on the touched region
      ({!Mof.Wellformed.check_touched}).

    Recording the step is the caller's: [Core.Pipeline.refine] appends it
    to the project's {!Trace} and commits the model.

    Every check always runs: a transformation is a refinement step only
    with its pre- and postconditions checked (Section 2 of the paper). What
    each check costs shows as the [engine.pre], [engine.post] and
    [engine.wf] spans of a trace. *)

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

(** Result of one successful application. *)
type outcome = { model : Mof.Model.t; diff : Mof.Diff.t }

val apply : Cmt.t -> Mof.Model.t -> (outcome, failure) result
(** Applies one concrete transformation. The well-formedness check
    re-validates only the elements the rewrite touched ({!Mof.Diff.touched}
    → {!Mof.Wellformed.check_touched}). That reports exactly what the
    whole-model {!Mof.Wellformed.check} would whenever the input model was
    well-formed — which [apply] has already guaranteed for every model it
    produced; the [wf] oracle holds the two to that. When a telemetry sink
    is installed, a successful application also emits a [report.make]
    event with the transformation, its concern and the diff counts. *)
