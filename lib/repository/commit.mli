(** Commits: immutable model versions with provenance.

    Each commit keeps the {!Mof.Model.t} it was created with, so reading any
    stored version is a lookup. Models are persistent values: a commit's
    model shares every unchanged element and index node with its parent's,
    so a version costs the path copies of what it changed, not a model
    copy. Alongside it, [tree] maps every live element id to the digest of
    its content in the {!Store}; consecutive commits share the digests of
    everything that did not change. Diffs between versions are computed
    from the trees, and snapshot deltas from the trees and the stored
    diffs, never from the models. *)

type tree = Tree.t
(** Element id → content digest. Persistent: a child commit's tree is the
    parent's with only the changed bindings replaced, so the two share
    every subtree the diff did not reach. *)

type t = {
  id : int;
  parent : int option;
  message : string;
  tree : tree;
  model : Mof.Model.t;
      (** the version itself: the model handed to [Repo.init], [commit] or
          [commit_on], or the one [Repo.load] rebuilt from the parent's
          model and this commit's tree delta. Its element population is
          exactly [tree]'s; the root package and the fresh-id counter
          ({!Mof.Model.root}, {!Mof.Model.next}) are read from it. *)
  diff : Mof.Diff.t;
      (** against the parent, computed once at commit time (journal replay
          when lineage allows, scan otherwise); empty for a root commit.
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

val pp : Format.formatter -> t -> unit
