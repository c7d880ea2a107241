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

module Map : Map.S with type key = t
(** Maps keyed by identifiers: Stdlib's balanced trees ([Map.Make (Int)]). *)

(** The bit arithmetic of a big-endian Patricia trie over ints (Okasaki and
    Gill, "Fast Mergeable Integer Maps", 1998), shared by {!Set} and by the
    repository's commit trees so that both branch on the same bits of an
    id. A branch on [bit], a power of two, holds keys that agree above
    [bit]; those with [bit] clear go left. {!Set} keys each element with
    its sign bit flipped, which leaves every lower bit alone, so on
    non-negative ids both tries branch on the same bits. *)
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
    - {!union}, {!inter} and {!diff} descend both sets in one pass, skip
      the subtrees the two share physically and keep the subtrees the
      result shares with an argument. Two sets whose elements first differ
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

  val diff : t -> t -> t
  (** [diff s t]: the elements of [s] not in [t]. *)

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
