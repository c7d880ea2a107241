(** The versioned model repository — the paper's Section 3 "version
    management capabilities for the model repository. An Undo/Redo facility
    for model transformations would also be appreciated." — rebuilt as a
    content-addressed store with structural sharing.

    Commits are trees of element refs into a hash-consed object {!Store}:
    consecutive versions share every element the diff says is unchanged, so
    a 10k-commit history costs O(total changes), not O(commits × model).
    Each commit also keeps its model, a persistent value sharing all but
    its changes with its parent's (see "Versions cost what changed").
    The per-commit diff is computed once at [commit] time (journal replay
    when the new model derives from its parent's, scan fallback otherwise) and
    stored on the commit; {!diff_between} composes the stored diffs along
    the commit path instead of recomputing, with {!diff_between_scan} kept
    as the differential baseline. Tags and branches are cheap named
    pointers with O(log n) lookup; the current branch pointer tracks the
    head through commit/undo/redo/checkout. {!save}/{!load} give a compact
    length-prefixed binary snapshot whose rendering is a byte-for-byte
    fixpoint (save ∘ load ∘ save = save), locked like the XMI oracle.

    The undo semantics are unchanged from the naive repository
    ({!Naive}, the oracle baseline): undo moves the head to the parent
    commit without discarding anything, redo walks forward again, and
    committing with a redo path outstanding discards that path.

    {2 Versions cost what changed}

    Every commit keeps the model it was created with ({!Commit.t}'s [model]),
    so reading a version — {!head_model}, {!model_at}, and the new head
    after {!undo}, {!redo}, {!checkout} or {!switch_branch} — is one
    O(log commits) lookup, and {!commit_on} diffs against the
    branch head's own model. Models are persistent, so a commit's model
    shares every element and index node its diff did not touch with its
    parent's: each version costs the O(c · log n) path copies of its c
    changes, not a model (a 1,000-commit history over a 100-class model
    holds about 4.5 times one model's words).

    A committed model is the client's own value, journal included: a
    client that edits the model it read from a version and commits it on
    top of that version gets the incremental, journal-replaying diff.
    {!load} rebuilds every version once, in ascending id order: the root
    commit from its whole tree, every other commit by applying its tree
    delta to its parent's model. So all loaded versions share the root
    version's journal lineage, each extending its parent's by one entry per
    applied change. Nothing observable depends on this: {!Mof.Model.equal}
    compares populations and roots only, and the indexes are maintained by
    the same incremental updates as any edit. *)

type t

(** Typed failures of name-based navigation. [Dangling] can only arise
    from a hand-edited snapshot — commits are never deleted. *)
type checkout_error =
  | Unknown_tag of string
  | Unknown_branch of string
  | Dangling of { name : string; commit : int }

val pp_checkout_error : Format.formatter -> checkout_error -> unit
val checkout_error_to_string : checkout_error -> string

val init : ?branch:string -> Mof.Model.t -> t
(** A repository whose root commit holds the given model, on branch
    [branch] (default ["main"]). *)

val commit :
  ?transformation:string ->
  ?concern:string ->
  message:string ->
  Mof.Model.t ->
  t ->
  t
(** Appends a new version on top of the head and advances the current
    branch pointer. O(changes · log n) plus one content digest per changed
    element. *)

val commit_on :
  branch:string ->
  ?transformation:string ->
  ?concern:string ->
  message:string ->
  Mof.Model.t ->
  t ->
  (t, checkout_error) result
(** Like {!commit}, but on top of the named branch's head (the head and
    current branch move to the new commit). The diff is taken against the
    branch head's stored model: journal replay when the given model was
    derived from it, scan otherwise. [Unknown_branch] when the branch does
    not exist. *)

val head : t -> Commit.t
val head_model : t -> Mof.Model.t
(** The head version: the head commit's stored model, O(log commits). After a
    commit it is physically the model that was committed, so journal
    lineage survives and the next commit's diff replays the journal. *)

val undo : t -> t option
(** Move head to its parent; [None] at the root. O(log commits): the
    parent's model is stored. *)

val redo : t -> t option
(** Re-advance head after an undo; [None] when there is nothing to redo.
    O(log commits), like {!undo}. *)

val can_undo : t -> bool
val can_redo : t -> bool

val tag : string -> t -> t
(** Names the head commit. Re-tagging moves the tag. O(log tags). *)

val tag_find : t -> string -> int option
(** Commit id a tag points at. O(log tags). *)

val checkout : string -> t -> (t, checkout_error) result
(** Moves the head to the commit named by a tag; clears the redo path.
    O(log commits + log tags). *)

val tags : t -> (string * int) list
(** All tag bindings, in name order. *)

val branch : t -> string
(** The current branch name. *)

val branches : t -> (string * int) list
(** All branch pointers, in name order. *)

val branch_head : t -> string -> int option
(** O(log branches). *)

val create_branch : string -> t -> (t, [ `Branch_exists of string ]) result
(** A new branch pointing at the head commit; does not switch to it. *)

val switch_branch : string -> t -> (t, checkout_error) result
(** Moves the head to the named branch's commit and makes it current;
    clears the redo path. O(log commits + log branches). *)

val find : t -> int -> Commit.t option

val model_at : t -> int -> Mof.Model.t option
(** The version a commit holds: its stored model, physically the one it was
    committed with (or rebuilt by {!load}). O(log commits). *)

val log : t -> Commit.t list
(** Head-first chain of commits from the head to the root. *)

val size : t -> int
(** Number of commits stored. *)

val diff_between : t -> from_id:int -> to_id:int -> Mof.Diff.t option
(** Structural diff between two stored versions, composed from the diffs
    stored along the commit path through their lowest common ancestor and
    classified against the two commit trees. A parent's id is always
    smaller than its child's, so the walk steps the larger id to its parent
    until the two meet: O((p + c) · log n) for a path of p commits touching
    c ids, with no model built and no ancestor set. [None] when either id
    is unknown. *)

val diff_between_scan : t -> from_id:int -> to_id:int -> Mof.Diff.t option
(** The scan baseline: both versions through {!model_at}, then
    {!Mof.Diff.compute_scan}; exposed for the [repo] differential oracle
    and bench E15. Agrees with {!diff_between} by construction or the
    oracle fails. *)

(** {2 Store statistics} *)

val store_objects : t -> int
(** Distinct content-addressed objects held. *)

val store_bytes : t -> int
(** Total canonical payload bytes across distinct objects. *)

(** {2 Binary snapshots}

    A compact length-prefixed binary rendering: each store object appears
    exactly once (digest + canonical bytes), commit trees are recorded as
    deltas against their parent with object references by store index, so
    snapshot size is O(store + total changes), not O(commits × model).
    [save] is deterministic and [save (load (save r)) = save r] — the
    fixpoint the snapshot test and the [repo] oracle lock. *)

val save : t -> string
(** O(objects + Σ changes): the root commit's tree is written whole, and
    every other commit's delta is classified from the ids its stored diff
    touched, never by comparing two whole trees. *)

val load : string -> (t, string) result
(** Rejects bad magic, truncated input, an object count the remaining bytes
    cannot hold (before allocating for it), digest mismatches, and dangling
    internal references with a descriptive message; never raises. Also
    rejects what would break the version walks or the rebuilt versions,
    naming the commit and the ids: commit ids out of ascending order, a
    second commit without a parent, a tree delta that changes an id its
    commit's stored diff does not touch, a binding whose stored object
    holds a different id, a commit whose tree lacks its root package or
    holds an id at or above its next-id counter, a redo path through an
    unknown commit, and a next commit id that does not exceed every stored
    one.

    Every version is rebuilt here, once and eagerly, in the same ascending
    pass that reads the commits: the root commit's model from its whole
    tree (O(n log n)), every other commit's by applying its tree delta to
    its parent's model, then restoring its root and id counter with
    {!Mof.Model.with_root} — O(changes · log n) per commit, like the
    checks. Eager, because a loaded repository is read lock-free from
    several domains (see {!Service}) and [Lazy.force] is not domain-safe. *)
