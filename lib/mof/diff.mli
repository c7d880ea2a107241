(** Structural difference between two models.

    Diffs power three of the paper's Section 3 requirements: repository
    history, the Undo/Redo facility, and the colored demarcation of model
    parts introduced by each concrete transformation. *)

type t = Id.Map.changes = {
  added : Id.Set.t;  (** ids bound in the new model only *)
  removed : Id.Set.t;  (** ids bound in the old model only *)
  modified : Id.Set.t;  (** ids bound in both, with different elements *)
}

val empty : t
(** {!Id.Map.no_changes}: what {!compute} returns, physically, when the
    two models bind the same ids to equal elements. *)

val compute : old_model:Model.t -> new_model:Model.t -> t
(** [compute ~old_model ~new_model] classifies every id bound in either
    model: {!Id.Map.diff} of the two element stores under
    {!Element.equal}. One walk of both stores skips every subtree they
    share physically, so a transformation's output against its input, or
    two versions one was edited from the other, diff in what the edits
    touched; two models that share nothing (an XMI import against the
    model it was exported from) diff in one walk of both. *)

val compute_scan : old_model:Model.t -> new_model:Model.t -> t
(** The double fold over both populations, O(|old| + |new|) lookups,
    which reads neither store's structure. The reference the [diff] and
    [repo] oracles hold {!compute} to, and the E11 baseline. *)

val touched : t -> Id.Set.t
(** All ids mentioned by the diff. *)

val pp : Format.formatter -> t -> unit
(** Summary rendering, e.g. [+12 -0 ~3]. *)
