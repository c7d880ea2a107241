(** Structural difference between two models.

    Diffs power three of the paper's Section 3 requirements: repository
    history, the Undo/Redo facility, and the colored demarcation of model
    parts introduced by each concrete transformation. *)

type t = {
  added : Id.Set.t;  (** ids bound in the new model only *)
  removed : Id.Set.t;  (** ids bound in the old model only *)
  modified : Id.Set.t;  (** ids bound in both, with different elements *)
}

val empty : t

val compute : old_model:Model.t -> new_model:Model.t -> t
(** [compute ~old_model ~new_model] classifies every id bound in either
    model. When [new_model] was derived from [old_model] (the common case:
    a transformation's output against its input, or consecutive repository
    versions), the classification replays the update journal and costs
    O(changes); unrelated models fall back to {!compute_scan}. Both paths
    produce identical diffs. *)

val compute_scan : old_model:Model.t -> new_model:Model.t -> t
(** The journal-free double fold over both populations, O(|old| + |new|).
    Exposed as the baseline for the E11 experiment and the consistency
    tests; {!compute} is never worse than this. *)

val touched : t -> Id.Set.t
(** All ids mentioned by the diff. *)

val pp : Format.formatter -> t -> unit
(** Summary rendering, e.g. [+12 -0 ~3]. *)
