(** The content-addressed object store: hash-consed elements keyed by the
    digest of their canonical bytes ({!Mof.Canon.element_bytes}).

    The store is append-only — objects are never evicted, which is what
    makes every commit tree that ever referenced an object permanently
    valid. [add] is the hash-consing point: an element whose digest is
    already bound costs one lookup and adds nothing; consecutive commits
    therefore share every unchanged element physically (in memory via the
    persistent trie, on disk because the snapshot writes each object
    exactly once).

    Objects sit in a big-endian Patricia trie over {!Mof.Id.Bits} (the
    arithmetic {!Mof.Id.Map} and {!Mof.Id.Set} branch on), keyed by the digest's
    leading 62 bits as a non-negative int. An add descends the trie once
    and compares the full digest at the leaf it reaches. Each leaf holds
    its object inline; only digests that share their leading 62 bits share
    a bucket, kept in digest order. An object therefore costs a leaf and a
    branch, 10 words, about what a [Map.Make (String)] node and its pair
    did, and {!fold} still runs in digest order. *)

type digest = string
(** 16 raw bytes ({!Mof.Canon.digest_size}); compare with [String.equal]. *)

type t

val empty : t

val add : t -> Mof.Element.t -> t * digest
(** [add t e] encodes and digests [e], then binds it under that digest, or
    returns [t] itself when an equal element is already stored. One trie
    descent, O(62) at worst. *)

val add_canonical : t -> digest -> Mof.Element.t -> string -> t
(** [add_canonical t digest e bytes] is {!add} for an element whose
    canonical [bytes] and their [digest] are already in hand: it binds [e]
    under [digest] without encoding or digesting it again. The caller
    vouches that [bytes] is [Mof.Canon.element_bytes e] and [digest] is
    [Digest.string bytes]; the snapshot loader checks both before it calls
    this. *)

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
    order ([String.compare] on the raw bytes) — the order the snapshot
    format serializes objects in. *)
