(** The versioned model repository — the paper's Section 3 "version
    management capabilities for the model repository. An Undo/Redo facility
    for model transformations would also be appreciated." — rebuilt as a
    content-addressed store with structural sharing.

    Commits are trees of element refs into a hash-consed object {!Store}:
    consecutive versions share every element the diff says is unchanged, so
    a 10k-commit history costs O(total changes), not O(commits × model).
    Each tree is a {!Mof.Id.Map}, the trie a model stores its elements in,
    that shares with its parent's every subtree the diff did not reach, and
    each commit also keeps its model once built, a persistent value sharing
    all but its changes with the model it was built from (see "Versions
    cost what changed"). The per-commit diff is computed once at [commit]
    time ({!Mof.Diff.compute} against the parent's model) and stored on the
    commit, where [save] writes each tree delta from it and [load] requires
    it to be exactly what each delta does; {!diff_between} diffs the two
    endpoint trees and skips what they share. Tags and branches are cheap named pointers with
    O(log n) lookup; the current branch pointer tracks the head through
    commit/undo/redo/checkout. {!save}/{!load} give a compact
    length-prefixed binary snapshot whose rendering is a byte-for-byte
    fixpoint (save ∘ load ∘ save = save), locked like the XMI oracle.

    The undo semantics are unchanged from the naive repository
    ({!Naive}, the oracle baseline): undo moves the head to the parent
    commit without discarding anything, redo walks forward again, and
    committing with a redo path outstanding discards that path.

    {2 Versions cost what changed}

    Every commit made in process keeps the model it was created with
    ({!Commit.t}'s [model] cell), so reading a version — {!head_model},
    {!model_at}, and the new head after {!undo}, {!redo} or {!checkout} —
    is one O(log commits) lookup, and {!commit_on}
    diffs against the branch head's own model. Models are persistent, so a
    commit's model shares every element and index node its diff did not
    touch with its parent's: each version costs the O(c · log n) path
    copies of its c changes, not a model (a 1,000-commit history over a
    100-class model holds about 4.5 times one model's words).

    {!load} builds only the head's model. Any other loaded version is built
    on its first read — by {!model_at}, {!head_model} after {!undo} or
    {!checkout}, or {!commit} or {!commit_on} on top of it — and kept: the
    read walks up the parent chain to the nearest built version (or, when
    none is, builds the chain's root from its tree), then replays each tree
    diff forward, keeping every version it passes. So each version is
    built at most once, from its parent; a client that reads every version
    of a loaded history pays the replays [load] used to pay, plus the
    head's own build (E15). Each cell is filled by one compare-and-set, so
    a repository loaded once can be read lock-free from several domains
    (see {!Service}): two domains that race build equal models, the loser
    reads the winner's, and every read of a version returns the same model
    physically.

    Nothing can fail at first read. A build relies only on what {!load}
    checks for every commit: its tree holds its root package and no id at
    or above its next-id counter, and each binding's object holds the id
    it is bound to.

    A committed model is the client's own value: a client that edits the
    model it read from a version and commits it on top of that version
    shares every untouched subtree with that version, so the commit's diff
    walks only the edits. A loaded version built by replay shares all but
    the applied changes with the version it was replayed from, so the same
    holds after {!load}; a version built from its tree alone shares
    nothing, and its first commit's diff walks both stores once. *)

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
    branch head's stored model. [Unknown_branch] when the branch does not
    exist. *)

val head : t -> Commit.t
val head_model : t -> Mof.Model.t
(** The head version: the head commit's model, O(log commits) once built.
    After a commit it is physically the model that was committed, so an
    edit of it shares all but its changes with it and the next commit's
    diff walks only those. After {!load} it is built; after an {!undo} or
    {!checkout} on a loaded repository it may be built here, as
    {!model_at} says. *)

val undo : t -> t option
(** Move head to its parent; [None] at the root. O(log commits): no model
    is built until one is read. *)

val redo : t -> t option
(** Re-advance head after an undo; [None] when there is nothing to redo.
    O(log commits), like {!undo}. *)

val can_undo : t -> bool
val can_redo : t -> bool

val tag : string -> t -> t
(** Names the head commit. Re-tagging moves the tag. O(log tags). *)

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

val find : t -> int -> Commit.t option

val model_at : t -> int -> Mof.Model.t option
(** The version a commit holds: physically the model it was committed
    with, or for a loaded commit the one built on its first read and kept
    in its cell. O(log commits) once built. The first read of a loaded
    version replays the tree diffs from its nearest built ancestor, or
    builds the chain's root from its tree and replays from there: O(c ·
    log n) per version replayed for c changes, plus O(n log n) for the
    root. Every version it passes is kept, so the same read never replays
    twice. Never raises: {!load} checked what the build relies on. *)

val log : t -> Commit.t list
(** Head-first chain of commits from the head to the root. *)

val size : t -> int
(** Number of commits stored. *)

val diff_between : t -> from_id:int -> to_id:int -> Mof.Diff.t option
(** Structural diff between two stored versions: {!Mof.Id.Map.diff} of the
    two commit trees, with no model built and no walk along the commits between
    them. A child's tree is its parent's with its diff applied, on any
    branch and after {!load}, so two versions share every subtree that no
    commit between them reached, and the diff skips those: it visits at
    most one trie path per id those commits touched, never more nodes than
    the two trees hold, and builds its result in O(d · log d) for d ids
    that differ. [None] when either id is unknown. *)

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
    cannot hold (before allocating for it), digest mismatches, payloads
    that are not their element's canonical bytes, and dangling internal
    references with a descriptive message; never raises. Also rejects what
    would break the version walks or a later build of a version, naming
    the commit and the ids: commit ids out of ascending order, a second
    commit without a parent, a binding whose stored object holds a
    different id, a commit whose tree lacks its root package or holds an
    id at or above its next-id counter, a redo path through an unknown
    commit, a next commit id that does not exceed every stored one, and a
    current branch that is not listed or does not point at the head.
    Every check runs here, eagerly, so a snapshot that loads reads back
    every version without an error.

    It accepts only what {!save} writes, so a snapshot that loads re-saves
    to its own bytes. Each delta entry is classified against the parent's
    tree, one lookup per entry, as [save] derives it: a removed id must be
    bound there, a bound id is added where the parent binds nothing and
    modified where it binds another object (never its own), both lists
    ascend strictly and share no id, and the stored diff must list exactly
    those ids; a root commit removes nothing and stores an empty diff. So
    {!History.render}'s counts are {!diff_between}'s. The bytes must be
    canonical: no overlong varint ({!Mof.Canon.r_int}), the object table in
    strictly ascending digest order, and tag and branch names in strictly
    ascending order.

    Each object is digested once, to check its payload, then decoded and
    re-encoded to check its canonical form, and stored under the digest
    in hand. Every commit's tree is rebuilt from its parent's and its
    delta, O(changes · log n) per commit, like the checks. Only the head's
    model is built, from its whole tree (O(n log n)); every other version
    is built on its first read (see {!model_at}), so loading a history
    costs its head, not its history. *)
