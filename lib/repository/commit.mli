(** Commits: immutable model versions with provenance.

    A commit's [model] cell holds its {!Mof.Model.t} once built, so reading
    a built version is a lookup. Models are persistent values: a commit's
    model shares every unchanged element and index node with the model it
    was derived from, so a version costs the path copies of what it
    changed, not a model copy. Alongside it, [tree] maps every live element
    id to the digest of its content in the {!Store}; consecutive commits
    share the digests of everything that did not change. Diffs between
    versions are computed from the trees, and snapshot deltas from the
    trees and the stored diffs, never from the models. *)

type tree = Store.digest Mof.Id.Map.t
(** Element id → content digest, in the trie the model store uses.
    Persistent: a child commit's tree is the parent's with only the changed
    bindings replaced, so the two share every subtree the diff did not
    reach, and {!Mof.Id.Map.diff} of two versions' trees costs what differs
    between them, not the size of the model or the number of commits
    between them. *)

(** What a commit's [model] cell holds. *)
type version =
  | Built of Mof.Model.t
      (** the version itself: the model handed to [Repo.init], [commit] or
          [commit_on], or one [Repo] built from the tree. Its element
          population is exactly the commit's tree's. *)
  | Unbuilt of { root : Mof.Id.t; next : int }
      (** a version [Repo.load] read but nobody has read since: the root
          package and fresh-id counter the snapshot stores for it, which
          [Repo.save] writes back without building the model. *)

type t = {
  id : int;
  parent : int option;
  message : string;
  tree : tree;
  model : version Atomic.t;
      (** Commits made in process start [Built]. A loaded commit starts
          [Unbuilt], except the head, and [Repo] builds it on its first
          read and publishes the model by one compare-and-set from
          [Unbuilt] to [Built]; the cell never changes again. Two domains
          that race build equal models, and the loser reads the winner's,
          so every later read of the commit returns the same model
          physically. *)
  diff : Mof.Diff.t;
      (** against the parent, computed once at commit time
          ({!Mof.Diff.compute}); empty for a root commit.
          [tree] differs from the parent's tree only at ids this diff
          touches, which is what snapshot deltas are written from and what
          [Repo.load] checks. *)
  transformation : string option;
      (** concrete transformation that produced this version, if any *)
  concern : string option;
}

val tree_size : t -> int
(** Number of live elements in the committed version. O(1). *)

val summary : t -> string
(** One line: id, message, diff size. *)
