(** The model store: an immutable, id-indexed collection of elements with a
    distinguished root package, secondary indexes, and an update journal.

    Models are persistent values — every update returns a new model — which
    is what makes transformation traces, repository versions, and undo/redo
    cheap and safe. Fresh ids are drawn from a counter carried by the model
    itself, so transformations are deterministic.

    {2 Indexes}

    Beyond the primary id map, every model maintains four secondary indexes,
    updated incrementally by {!add}, {!update} and {!remove}:

    - {!by_kind}: metaclass name → ids ({!Kind.name} of the element's kind);
    - {!by_name}: simple name → ids;
    - {!by_stereotype}: stereotype → ids carrying it;
    - {!owned_by}: owner id → ids whose [owner] field designates it;
    - {!referrers}: target id → ids whose {!Kind.refs} mention it. The key
      is the {e target}, bound or not, so the referrers of a removed element
      remain discoverable (how {!Wellformed.check_touched} finds dangling
      references after a deletion).

    Index maintenance is O(k log n) per {!add} or {!remove} of an element
    with k index keys; an {!update} moves the element only between the
    buckets of the keys that changed. Every lookup is O(log n) and returns a
    set whose elements come back in ascending id order, matching the
    historical scan order of {!fold}/{!elements}. The invariant — each index
    equals the map a full scan of the store would rebuild — is asserted by
    the randomized consistency test in [test_mof.ml].

    {2 Journal and watermarks}

    Every mutation stamps the touched id into a journal. {!watermark}
    captures the current journal position; {!touched_since} later replays
    the ids touched after that position in O(changes), independent of model
    size — the basis of incremental {!Diff.compute} and scoped
    {!Wellformed.check_touched}. A watermark is only meaningful against
    models {e derived} from the watermarked one (same [create]/
    [of_elements] lineage, mutations applied on top); [touched_since]
    detects unrelated or divergent models and returns [None] so callers can
    fall back to a full scan. Journal entries are never dropped: a
    long-lived refinement session grows the journal by one small cons cell
    per mutation. *)

type t
(** The type of models. *)

exception Element_not_found of Id.t
(** Raised by the [_exn] accessors. *)

val create : name:string -> t
(** [create ~name] is a model holding a single root package called [name]. *)

val of_elements : root:Id.t -> next:int -> Element.t list -> t
(** Reconstructs a model from a previously serialized element population
    (used by the XMI importer), rebuilding all indexes. [next] must exceed
    every bound id; the element list must contain [root]. Raises
    [Invalid_argument] otherwise, or on duplicate ids. The reconstructed
    model starts a fresh lineage: its journal is empty and watermarks taken
    from other models do not apply to it. *)

val name : t -> string
(** The model name (the root package's name). O(log n). *)

val root : t -> Id.t
(** Id of the root package. O(1). *)

val level_tag : t -> string option
(** The abstraction level recorded on the root package ("PIM", "PSM", …),
    if any; see {!set_level_tag}. *)

val set_level_tag : string -> t -> t
(** Records the abstraction level on the root package. *)

val next : t -> int
(** The next-id counter. Strictly greater than every bound id (maintained
    by {!add}), so it can be serialized directly and fed back to
    {!of_elements}. *)

val fresh_id : t -> t * Id.t
(** Allocates a fresh element id. Does not journal (nothing is bound yet). *)

val add : t -> Element.t -> t
(** [add m e] stores [e], indexes it, and journals [e.id]. Raises
    [Invalid_argument] if [e.id] is already bound — elements are inserted
    once and then {!update}d. O(k log n) for k index keys. *)

val mem : t -> Id.t -> bool
(** O(log n). *)

val find : t -> Id.t -> Element.t option
(** O(log n). *)

val find_exn : t -> Id.t -> Element.t

val update : t -> Id.t -> (Element.t -> Element.t) -> t
(** [update m id f] replaces the element bound to [id] by [f] applied to
    it and journals [id]. [f] must keep the element's id (every caller
    edits a field of the element it is given). Only the index keys that
    changed are reindexed: the kind name, the name, the stereotypes, the
    owner, and the refs that one side mentions and the other does not. A
    rename touches two name buckets, and appending a child to a package's
    containment list adds one referrer entry. O(k log k + c log n) for k
    refs and stereotypes and c changed keys.
    @raise Element_not_found if [id] is unbound. *)

val with_root : root:Id.t -> next:int -> t -> t
(** [with_root ~root ~next m] is [m] with root package [root] and id
    counter [next]; the element population, indexes and journal are
    untouched. Its caller is the forward replay in the repository's
    snapshot loader, which rebuilds each version by applying its tree delta
    to its parent's model and then gives it its own root and counter; the
    loader checks both invariants first, so a malformed snapshot is
    reported by commit, not by this function. Raises [Invalid_argument]
    when [root] is unbound or [next] does not exceed every bound id — the
    invariants {!of_elements} checks. O(log n). *)

val remove : t -> Id.t -> t
(** Removes the binding for [id] (and only that binding; callers are
    responsible for unlinking references, cf. {!Builder.delete_element}),
    drops its index entries, and journals [id]. Removing an unbound id is a
    no-op that leaves the journal untouched. *)

(** {2 Indexed lookups}

    All lookups are O(log n) and never raise; an unknown key yields the
    empty set. [Id.Set.elements] of any result is in ascending id order. *)

val by_kind : t -> string -> Id.Set.t
(** Ids of all elements whose metaclass ({!Kind.name}) is the given name. *)

val by_name : t -> string -> Id.Set.t
(** Ids of all elements with the given simple name. *)

val by_stereotype : t -> string -> Id.Set.t
(** Ids of all elements carrying the given stereotype. *)

val owned_by : t -> Id.t -> Id.Set.t
(** Ids of all elements whose [owner] field designates the given id (the
    owner-field view of containment; the payload view is the owner's own
    containment lists). *)

val referrers : t -> Id.t -> Id.Set.t
(** Ids of all elements whose {!Kind.refs} mention the given id. Defined
    whether or not the target is bound. *)

(** {2 Journal} *)

type watermark
(** A position in a model's update journal (O(1) to take and to hold). *)

val watermark : t -> watermark
(** The current journal position. *)

val touched_since : t -> watermark -> Id.Set.t option
(** [touched_since m w] is [Some ids] — every id touched by a mutation
    applied after [w] was taken — when [m] was derived from the watermarked
    model by a chain of {!add}/{!update}/{!remove}; [None] when the models
    are unrelated or divergent (caller falls back to a full comparison).
    O(changes since [w]). *)

(** {2 Whole-population traversal}

    All O(n) except {!is_empty}; prefer the indexed lookups on hot paths. *)

val fold : (Element.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over all elements in id order. *)

val iter : (Element.t -> unit) -> t -> unit

val elements : t -> Element.t list
(** All elements, in id order. *)

val size : t -> int
(** Number of elements. *)

val is_empty : t -> bool
(** [is_empty m] is [size m = 0], in O(1). *)

val filter : (Element.t -> bool) -> t -> Element.t list

val equal : t -> t -> bool
(** Structural equality of the element populations and roots (the id
    counter, indexes, and journal are ignored, so a model equals itself
    after a no-op transformation and after an XMI round trip). *)
