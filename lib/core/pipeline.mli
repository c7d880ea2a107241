(** The refinement pipeline — the paper's contribution, executable.

    One {!refine} call is one Fig. 1 refinement step: resolve the concern's
    generic transformation GMT_Ci from the registry, specialize it with the
    parameter set S_i into CMT_Ci, check the specialized preconditions,
    apply, check the specialized postconditions and well-formedness, record
    the trace entry and the repository commit, and advance the workflow.

    {!build} is Fig. 2 end-to-end: generate the functional code, generate
    one concrete aspect A_i⟨S_i⟩ per applied transformation from the same
    parameter sets, order them by transformation order, and weave. *)

(** Why a pipeline step was refused. The model is untouched in every case,
    so callers can report the error and keep the project. *)
type error =
  | Unknown_concern of string
  | Invalid_params of {
      transformation : string;
      problems : Transform.Params.problem list;
    }  (** parameter validation refused the specialization *)
  | Workflow_violation of { concern : string; reason : string }
      (** the concern is not admissible at the current workflow step *)
  | Engine_failure of {
      transformation : string;
      failure : Transform.Engine.failure;
    }  (** failed pre/postconditions, broken well-formedness, or rewrite *)
  | Aspect_generation of string
      (** no generic aspect registered for an applied transformation *)

val error_to_string : error -> string

val refine :
  Project.t ->
  concern:string ->
  params:(string * Transform.Params.value) list ->
  (Project.t * Transform.Report.t, error) result
(** One refinement step. Fails (model untouched) on: unknown concern,
    parameter validation problems, workflow violations, failed
    pre/postconditions, broken well-formedness. *)

val undo : Project.t -> Project.t option
(** Reverts the last refinement: repository head moves back, the trace
    loses its last entry, the session model reverts. [None] when nothing
    has been applied. (The workflow progress, when present, is rebuilt from
    the remaining applied concerns.) *)

val redo_info : Project.t -> string option
(** The message of the commit a repository redo would restore, if any —
    full redo re-applies through {!refine} so that all checks re-run. *)

val exclude_stereotypes : string list
(** Stereotypes marking model elements that belong to concern spaces rather
    than the functional model: ["infrastructure"], ["proxy"],
    ["remote-interface"]. *)

val functional_code : Project.t -> Code.Junit.program
(** Code for the functional model only — concern-introduced classifiers are
    excluded. *)

val monolithic_code : Project.t -> Code.Junit.program
(** Code for the *whole* refined model, concern elements included, with no
    aspects — the single-code-generator baseline the paper argues against
    (used by the ablation experiment). *)

val aspects :
  Project.t -> (Aspects.Generator.generated list, error) result
(** One concrete aspect per applied transformation, specialized by the
    transformation's own parameter set, in application order. *)

val build : Project.t -> (Artifacts.t, error) result
(** Functional code + aspect generation + weaving. *)
