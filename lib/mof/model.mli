(** The model store: an immutable, id-indexed collection of elements with a
    distinguished root package and secondary indexes.

    Models are persistent values — every update returns a new model — which
    is what makes transformation traces, repository versions, and undo/redo
    cheap and safe. Fresh ids are drawn from a counter carried by the model
    itself, so transformations are deterministic. The elements sit in an
    {!Id.Map}, so a model shares every subtree an edit did not reach with
    the model it was edited from, and {!Diff.compute} of the two walks only
    what they do not share.

    {2 Indexes}

    Beyond the primary id map, every model maintains two secondary indexes,
    updated incrementally by {!add}, {!update} and {!remove}:

    - {!by_kind}: metaclass name → ids ({!Kind.name} of the element's kind);
    - {!by_name}: simple name → ids.

    Index maintenance is O(log n) per {!add} or {!remove}; an {!update}
    moves the element only between the buckets of the keys that changed.
    Every lookup is O(log n) and returns a set whose elements come back in
    ascending id order, matching the historical scan order of
    {!fold}/{!elements}. The invariant — each index equals the map a full
    scan of the store would rebuild — is asserted by the randomized
    consistency test in [test_mof.ml]. *)

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
    [Invalid_argument] otherwise, or on duplicate ids. *)

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
(** Allocates a fresh element id; nothing is bound yet. *)

val add : t -> Element.t -> t
(** [add m e] stores [e] and indexes it. Raises
    [Invalid_argument] if [e.id] is already bound — elements are inserted
    once and then {!update}d. O(log n). *)

val mem : t -> Id.t -> bool
(** O(log n). *)

val find : t -> Id.t -> Element.t option
(** O(log n). *)

val find_exn : t -> Id.t -> Element.t

val update : t -> Id.t -> (Element.t -> Element.t) -> t
(** [update m id f] replaces the element bound to [id] by [f] applied to
    it. [f] must keep the element's id (every caller
    edits a field of the element it is given). The element moves between
    kind and name buckets only, and only for the keys that changed: a
    rename touches two name buckets, and a stereotype, tag or containment
    edit touches none. O(log n).
    @raise Element_not_found if [id] is unbound. *)

val with_root : root:Id.t -> next:int -> t -> t
(** [with_root ~root ~next m] is [m] with root package [root] and id
    counter [next]; the element population and indexes are untouched. Its caller is the repository's forward replay, which builds
    a loaded version on its first read by applying its tree diff to its
    parent's model and then gives it its own root and counter; the
    snapshot loader checks both invariants for every commit, so a
    malformed snapshot is reported by commit at load, never by this
    function. Raises [Invalid_argument]
    when [root] is unbound or [next] does not exceed every bound id — the
    invariants {!of_elements} checks. O(log n). *)

val remove : t -> Id.t -> t
(** Removes the binding for [id] (and only that binding; callers are
    responsible for unlinking references, cf. {!Builder.delete_element})
    and drops its index entries. Removing an unbound id returns [m]. *)

(** {2 Indexed lookups}

    All lookups are O(log n) and never raise; an unknown key yields the
    empty set. [Id.Set.elements] of any result is in ascending id order. *)

val by_kind : t -> string -> Id.Set.t
(** Ids of all elements whose metaclass ({!Kind.name}) is the given name. *)

val by_name : t -> string -> Id.Set.t
(** Ids of all elements with the given simple name. *)

(** {2 Whole-population traversal}

    {!fold} and {!elements} are O(n); prefer the indexed lookups on hot
    paths. *)

val store : t -> Element.t Id.Map.t
(** The elements by id, the map {!Diff.compute} walks. O(1). *)

val fold : (Element.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over all elements in id order. *)

val elements : t -> Element.t list
(** All elements, in id order. *)

val size : t -> int
(** Number of elements. O(1). *)

val is_empty : t -> bool
(** [is_empty m] is [size m = 0], in O(1). *)

val equal : t -> t -> bool
(** Structural equality of the element populations and roots (the id
    counter and indexes are ignored, so a model equals itself after a no-op
    transformation and after an XMI round trip). Subtrees the two stores
    share physically are not visited. *)
