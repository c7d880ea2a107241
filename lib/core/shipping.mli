(** Packaging a refinement for reuse.

    The paper's Section 2 leaves open: "Should we ship only the last, most
    specialized model, together with the implementation, or should we ship
    all the intermediate models, together with the transformations and the
    set of parameters that specialize each transformation?"

    This module ships *both*: every intermediate model version (one XMI per
    repository commit) and a replayable manifest of (concern, parameter
    assignment) steps. A recipient can use the final model as-is, diff any
    two intermediate versions, or — because the manifest names concerns and
    parameters rather than frozen model deltas — replay the refinement
    against the registry, possibly with adjusted parameters: exactly the
    reuse of "models, transformations, and aspects" the paper asks about.

    Package layout:
    {v
    <dir>/initial.xmi       the model the refinement started from
    <dir>/step-<n>.xmi      the model after the n-th transformation
    <dir>/final.xmi         = the highest step (kept for convenience)
    <dir>/MANIFEST          one tab-separated line per step:
                            step <TAB> <concern> <TAB> name=value ...
    v}

    Values in the manifest use the wizard's textual syntax
    ({!Workflow.Wizard.parse_assignments}), so the declared parameter types from
    the concern registry drive parsing at replay time. *)

val ship : dir:string -> Project.t -> (unit, string) result
(** Writes the package (creating [dir] if needed). *)

val verify : dir:string -> (bool, string) result
(** Replays the package and compares the outcome against the shipped final
    model. *)
