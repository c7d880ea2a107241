(** Opaque identifiers for model elements.

    Every element stored in a {!Model.t} carries a unique identifier. Ids are
    allocated by the model store itself ({!Model.fresh_id}); they are stable
    across transformations, which makes them suitable as keys in traces,
    diffs, and XMI serializations. *)

type t
(** The type of element identifiers. *)

val of_int : int -> t
(** [of_int n] is the identifier with ordinal [n]. Intended for the model
    store and the XMI importer; user code should obtain ids from
    {!Model.fresh_id} or from queries. *)

val to_int : t -> int
(** [to_int id] is the ordinal backing [id]. *)

val to_string : t -> string
(** [to_string id] renders [id] as ["e<n>"], the form used in XMI files. *)

val of_string : string -> t option
(** [of_string s] parses the ["e<n>"] form produced by {!to_string}. *)

val equal : t -> t -> bool
(** Structural equality on identifiers. *)

val compare : t -> t -> int
(** Total order on identifiers, by ordinal. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer, same output as {!to_string}. *)

(** The bit arithmetic of a big-endian Patricia trie over ints (Okasaki and
    Gill, "Fast Mergeable Integer Maps", 1998), shared by {!Set}, {!Map}
    and the repository's object store. A branch on [bit], a power of two,
    holds keys that agree above [bit]; those with [bit] clear go left.
    {!Set} and {!Map} key each id with its sign bit flipped, so the two
    branch on the same bits of an id. *)
module Bits : sig
  val mask : int -> int -> int
  (** [mask key bit] is [key] with its bits at and below [bit] cleared: the
      prefix a branch on [bit] shares among all its keys. *)

  val matches : int -> prefix:int -> bit:int -> bool
  (** Whether [key] agrees with a branch's [prefix] above its [bit]. *)

  val goes_left : int -> int -> bool
  (** Whether [key] has [bit] clear, so it falls under the left child. *)

  val highest_bit : int -> int
  (** The highest set bit of a non-zero int; [min_int] for a negative one. *)

  val higher : int -> int -> bool
  (** [higher b0 b1]: whether power of two [b0] is above [b1] as unsigned
      bits, [min_int] (the sign bit) highest. *)
end

(** Sets of identifiers, as a big-endian Patricia trie over {!Bits}, with
    no functor compare.

    - {!fold}, {!elements} and {!filter} run in ascending order. Any int
      is an element, negative ones below non-negative ones.
    - A set's shape depends only on its elements, never on the order they
      were added or removed in, so [Stdlib.(=)] agrees with {!equal}.
    - A no-op {!add}, {!remove} or {!filter} returns its argument
      physically.
    - {!union} and {!inter} descend both sets in one pass, skip the
      subtrees the two share physically and keep the subtrees the result
      shares with an argument. Two sets whose elements first differ
      at one bit, all of one set's on one side of it and all of the
      other's on the other, are joined under one new branch in constant
      time. A merge therefore costs what differs between its arguments. *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val is_empty : t -> bool
  val singleton : elt -> t
  val mem : elt -> t -> bool
  val add : elt -> t -> t
  val remove : elt -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val equal : t -> t -> bool
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val filter : (elt -> bool) -> t -> t

  val cardinal : t -> int
  (** O(n), like Stdlib's. *)

  val elements : t -> elt list

  val min_elt_opt : t -> elt option

  val max_elt : t -> elt
  (** @raise Not_found on the empty set. *)

  val of_list : elt list -> t
end

(** Maps keyed by identifiers, as a big-endian Patricia trie keyed and
    shaped like {!Set}: the model store and the repository's commit
    trees.

    - {!fold} and {!bindings} run in ascending id order, negative ids
      below non-negative ones, and {!max_binding_opt} is the largest id.
    - A map's shape depends only on its keys, never on the order they
      were added or removed in.
    - {!cardinal} is O(1): every branch carries its size.
    - {!add} and {!remove} copy the path to the key and share everything
      else. Where nothing changes they return their argument physically:
      an {!add} of the value already bound (physically), a {!remove} of an
      unbound key.
    - {!equal} and {!diff} descend both maps in step and skip every
      subtree the two share physically, so a map and its edited copy
      compare in what the edits touched. *)
module Map : sig
  type key = t
  type 'a t

  val empty : 'a t
  val is_empty : 'a t -> bool
  val singleton : key -> 'a -> 'a t

  val cardinal : 'a t -> int
  (** O(1). *)

  val find_opt : key -> 'a t -> 'a option
  val mem : key -> 'a t -> bool
  val add : key -> 'a -> 'a t -> 'a t
  val remove : key -> 'a t -> 'a t
  val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  val bindings : 'a t -> (key * 'a) list
  val max_binding_opt : 'a t -> (key * 'a) option

  val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
  (** [equal eq a b]: the same keys, bound to values [eq] holds equal. *)

  (** What differs between two maps, by key. *)
  type changes = {
    added : Set.t;  (** keys bound in the second map only *)
    removed : Set.t;  (** keys bound in the first map only *)
    modified : Set.t;  (** keys both bind, to values [eq] tells apart *)
  }

  val no_changes : changes
  (** Three empty sets: what {!diff} returns, physically, when nothing
      differs. *)

  val diff : ('a -> 'a -> bool) -> 'a t -> 'a t -> changes
  (** [diff eq a b] classifies every key bound in either map, in one walk
      of both that skips the subtrees they share physically and calls [eq]
      only where the two bind one key in leaves they do not share. Its sets
      are built from the branches it walks ({!Set} branches on the same
      bits), so it allocates a few words per differing key, and two maps
      that bind the same keys to equal values, shared or not, diff to
      {!no_changes} itself with no allocation. Two maps that share nothing
      are walked whole. *)
end
