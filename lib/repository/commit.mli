(** Commits: immutable model versions with provenance, stored as trees of
    content-addressed element refs.

    A commit no longer embeds a model copy: [tree] maps every live element
    id to the digest of its content in the {!Store}, so consecutive commits
    share the digests (and, transitively, the stored objects) of everything
    that did not change. [Repo.model_at] derives the full {!Mof.Model.t} on
    demand from the head's, through the trees and stored diffs on the path
    between them. *)

type tree = Store.digest Mof.Id.Map.t
(** Element id → content digest. Persistent: a child commit's tree is the
    parent's with only the changed bindings replaced. *)

type t = {
  id : int;
  parent : int option;
  message : string;
  tree : tree;
  root : Mof.Id.t;  (** root package id, restored on every derived version *)
  next_id : int;  (** the model's fresh-id counter at commit time *)
  diff : Mof.Diff.t;
      (** against the parent, computed once at commit time (journal replay
          when lineage allows, scan otherwise); empty for a root commit.
          [tree] differs from the parent's tree only at ids this diff
          touches, which is what versions, composed diffs and snapshot
          deltas are computed from. *)
  transformation : string option;
      (** concrete transformation that produced this version, if any *)
  concern : string option;
}

val tree_size : t -> int
(** Number of live elements in the committed version. *)

val summary : t -> string
(** One line: id, message, diff size. *)

val pp : Format.formatter -> t -> unit
