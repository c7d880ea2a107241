(** Commit trees: element id → content digest, as a big-endian Patricia
    trie over the bits of the id (Okasaki and Gill, "Fast Mergeable Integer
    Maps", 1998).

    A branch records the bits its keys share above its branching bit, and
    keys with that bit clear go left, so a trie's shape depends only on its
    keys, never on the order they were added or removed in. Two tries that
    bind the same keys therefore line up node for node, and {!diff}
    descends both in step, skipping every subtree they share physically. A
    child commit's tree is its parent's with the diff applied, which keeps
    every subtree the diff did not reach shared, so diffing two versions
    costs what differs between them and the depth of the trie (at most the
    bit width of the largest id), not the size of the model or the number
    of commits between them.

    Keys are non-negative ids, which is every id {!Mof.Model.fresh_id}, the
    XMI importer and {!Mof.Canon} produce. {!fold} and {!bindings} run in
    ascending id order, like their {!Mof.Id.Map} counterparts. *)

type t

val empty : t

val cardinal : t -> int
(** Number of bindings. O(1): every branch carries its size. *)

val find_opt : Mof.Id.t -> t -> Store.digest option
val mem : Mof.Id.t -> t -> bool

val add : Mof.Id.t -> Store.digest -> t -> t
(** Binds the id, replacing any previous binding. Copies the path to the
    id's leaf and shares everything else with the given trie.
    @raise Invalid_argument on a negative id. *)

val remove : Mof.Id.t -> t -> t
(** Unbinds the id; the trie itself when the id is not bound. *)

val max_binding_opt : t -> (Mof.Id.t * Store.digest) option
(** The binding with the largest id. *)

val fold : (Mof.Id.t -> Store.digest -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the bindings in ascending id order. *)

val bindings : t -> (Mof.Id.t * Store.digest) list
(** All bindings, in ascending id order. *)

val diff : t -> t -> Mof.Diff.t
(** [diff a b] classifies every id bound in either trie: [added] when only
    [b] binds it, [removed] when only [a] does, [modified] when both bind
    it to different digests. Subtrees the two tries share physically are
    skipped without being visited, and two leaves with the same id are
    compared without allocating. *)
