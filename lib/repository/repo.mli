(** The versioned model repository — the paper's Section 3 "version
    management capabilities for the model repository. An Undo/Redo facility
    for model transformations would also be appreciated." — rebuilt as a
    content-addressed store with structural sharing.

    Commits are trees of element refs into a hash-consed object {!Store}:
    consecutive versions share every element the diff says is unchanged, so
    a 10k-commit history costs O(total changes), not O(commits × model).
    The per-commit diff is computed once at [commit] time (journal replay
    when the new model derives from the head, scan fallback otherwise) and
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

    Only the head's model is kept. Any other version ({!model_at}, and the
    new head after {!undo}, {!redo}, {!checkout} or {!switch_branch}) is
    derived from it: the diff composed along the commit path from the head
    to that version is applied to the head's model, element by element
    from the target commit's tree. That costs O((p + c) · log n) for a path
    of p commits touching c ids in all, where rebuilding the model from the
    tree would cost O(n log n) in every index.

    A derived version continues the head's journal lineage instead of
    starting a fresh one: its journal is the head's plus one entry per
    applied change. Nothing observable depends on this. {!Mof.Model.equal}
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
    branch head's version, derived from the current head when the two
    differ. [Unknown_branch] when the branch does not exist. *)

val head : t -> Commit.t
val head_model : t -> Mof.Model.t
(** The materialized head version. O(1): the repository always carries the
    head's model (committing stores the model it was given, so journal
    lineage survives across a commit and incremental diffing keeps
    working). *)

val undo : t -> t option
(** Move head to its parent; [None] at the root. The new head's model is
    the current one with the head commit's stored diff undone:
    O(changes · log n). *)

val redo : t -> t option
(** Re-advance head after an undo; [None] when there is nothing to redo.
    O(changes · log n), like {!undo}. *)

val can_undo : t -> bool
val can_redo : t -> bool

val tag : string -> t -> t
(** Names the head commit. Re-tagging moves the tag. O(log tags). *)

val tag_find : t -> string -> int option
(** Commit id a tag points at. O(log tags). *)

val checkout : string -> t -> (t, checkout_error) result
(** Moves the head to the commit named by a tag; clears the redo path.
    Costs what {!model_at} of the tagged commit costs. *)

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
    clears the redo path. Costs what {!model_at} of that commit costs. *)

val find : t -> int -> Commit.t option

val model_at : t -> int -> Mof.Model.t option
(** The version a commit holds, derived from the head's model (see
    "Versions cost what changed" above): O((p + c) · log n) for the p
    commits on the path from the head and the c ids they touched. *)

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
(** Rejects bad magic, truncated input, digest mismatches, and dangling
    internal references with a descriptive message; never raises. Also
    rejects what would break the version walks: commit ids out of
    ascending order, a second commit without a parent, a tree delta that
    changes an id its commit's stored diff does not touch, and a next
    commit id that does not exceed every stored one. These checks cost
    O(changes · log n) per commit. Only the head's model is built. *)
