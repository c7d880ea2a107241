(** The refinement workflow model — the paper's Section 3 guidance
    requirement: "A workflow model could track the refinement of a PIM or
    PSM through transformations. The workflow model could define which
    generic transformations can be applied at a certain refinement step, and
    therefore could determine the allowed sequence of transformations."

    A workflow is a sequence of steps, each naming the concerns admissible
    at that point. Progress tracks which concern was chosen at each
    completed step. Optional steps may be skipped. *)

type step = {
  step_name : string;
  choices : string list;  (** concern keys admissible at this step *)
  optional : bool;
}

val step : ?optional:bool -> name:string -> string list -> step

type t = { steps : step list }

val workflow : step list -> t

val middleware_default : t
(** The workflow the paper's running example follows: distribution, then
    transactions, then security, with optional concurrency and logging
    steps at the end. *)

type progress

val start : t -> progress

val current_step : progress -> step option
(** The next step to satisfy; [None] when the workflow is complete. *)

val advance : progress -> concern:string -> (progress, string) result
(** Records that [concern] was applied. The concern must be admissible at
    the current step, or at a later step reachable by skipping only
    optional steps (the skipped steps are consumed). *)

val completed : progress -> (string * string) list
(** (step name, concern applied) pairs so far. *)

val remaining_concerns : progress -> string list
(** Concerns still applicable at the current and later steps — the paper's
    "list of the remaining concerns". *)
