(** The content-addressed object store: hash-consed elements keyed by the
    digest of their canonical bytes ({!Mof.Canon.element_bytes}).

    The store is append-only — objects are never evicted, which is what
    makes every commit tree that ever referenced an object permanently
    valid. [add] is the hash-consing point: an element whose digest is
    already bound costs one map lookup and adds nothing; consecutive
    commits therefore share every unchanged element physically (in memory
    via the persistent map, on disk because the snapshot writes each
    object exactly once). *)

type digest = string
(** 16 raw bytes ({!Mof.Canon.digest_size}); compare with [String.equal]. *)

type t

val empty : t

val add : t -> Mof.Element.t -> t * digest
(** [add t e] binds [e] under its content digest, or returns [t] unchanged
    when an equal element is already stored. O(log objects). *)

val find_exn : t -> digest -> Mof.Element.t
(** @raise Invalid_argument on an unknown digest — a store/tree
    consistency break, not a user error. *)

val count : t -> int
(** Number of distinct objects. O(1), like {!bytes}. *)

val bytes : t -> int
(** Total canonical payload bytes across distinct objects — the measure
    behind the [repo.store.bytes] gauge. *)

val fold : (digest -> Mof.Element.t -> string -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over [(digest, element, canonical bytes)] in ascending digest
    order — the order the snapshot format serializes objects in. *)
