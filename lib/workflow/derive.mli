(** Deriving a workflow from concern dependencies.

    The paper wants the workflow model to "define which generic
    transformations can be applied at a certain refinement step, and
    therefore … determine the allowed sequence of transformations". Rather
    than writing step lists by hand, a project can declare *why* an order
    exists — concern B needs concern A's model elements — and derive the
    workflow from those prerequisites. *)

val from_dependencies :
  ?optional:string list ->
  (string * string list) list ->
  (State.t, string) result
(** [from_dependencies specs] builds a single-choice-per-step workflow from
    [(concern, prerequisites)] pairs using a stable topological order
    (declaration order breaks ties). Concerns listed in [optional] become
    optional steps. Errors: a prerequisite naming an undeclared concern, a
    concern declared twice, or a dependency cycle (the cycle's members are
    named). *)
