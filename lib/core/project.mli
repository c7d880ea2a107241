(** A development project: its version repository, the trace of the
    refinement steps that built the head version, and optional workflow
    guidance. This is the unit of state the paper's tool infrastructure
    manages.

    Each fact is held once. The repository holds every version and the
    trace holds every step; {!model}, {!initial_model}, {!applied} and
    {!progress} are views over those two. *)

type t = {
  name : string;
  repo : Repository.Repo.t;  (** every version; the head is the current one *)
  trace : Transform.Trace.t;
      (** one entry per step from the root version to the head *)
  workflow : Workflow.State.t option;
}

val create : ?workflow:Workflow.State.t -> Mof.Model.t -> t
(** Starts a project on a model. The model is marked PIM when it carries no
    level tag ({!Concerns.Level}); the repository's root commit holds the
    (marked) model. *)

val model : t -> Mof.Model.t
(** The current (most refined) model: the repository head's. *)

val initial_model : t -> Mof.Model.t
(** The repository root's model. *)

val applied : t -> Transform.Cmt.t list
(** Concrete transformations applied so far, in order: the trace's. *)

val progress : t -> Workflow.State.progress option
(** The workflow's progress after the trace's concerns, in order; [None]
    without a workflow. *)

val history : t -> string
(** Rendered repository log. *)

val coloring : t -> string
(** The colored concern demarcation of the current model
    ({!Workflow.Color.demarcate}). *)
