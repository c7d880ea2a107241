(** Canonical binary serialization and content digests for elements.

    Every element has exactly one canonical byte rendering: fields in
    declaration order, unsigned LEB128 varints for non-negative integers,
    length-prefixed UTF-8 for strings, a fixed tag byte per kind
    constructor, and list fields length-prefixed in their stored order
    (stereotype and tagged-value order is part of {!Element.equal}, so it
    is part of the rendering too). The contract the repository's object
    store builds on:

    - [element_bytes a = element_bytes b] iff [Element.equal a b];
    - [read_element (reader (element_bytes e)) = e] — the codec is a
      bijection onto its image;
    - the rendering never changes silently: it is locked by the
      repository snapshot fixpoint test and the [repo] differential
      oracle.

    {!digest} is the 16-byte MD5 of the canonical bytes — the content
    address under which the repository's store hash-conses elements.
    MD5 is used as a content-addressing hash (collision resistance against
    adversarial inputs is not part of the threat model of an in-process
    model store; what matters is stability and speed).

    The low-level writer/reader primitives are exposed so the repository
    snapshot format can reuse one wire discipline instead of inventing a
    second. *)

exception Corrupt of string
(** Raised by the reader on truncated or malformed input. *)

(** {2 Writer primitives} *)

val w_int : Buffer.t -> int -> unit
(** Unsigned LEB128. Raises [Invalid_argument] on negative input. *)

val w_str : Buffer.t -> string -> unit
(** Length-prefixed raw bytes. *)

val w_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** Count-prefixed; items in list order. *)

val w_id : Buffer.t -> Id.t -> unit

(** {2 Reader primitives} *)

type reader

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val at_end : reader -> bool

val r_int : reader -> int
(** Reads what {!w_int} writes: a non-negative int. Raises [Corrupt] on a
    truncated varint, on one wider than nine bytes, on one whose value
    does not fit a non-negative int (a ninth byte with bit 6 set), and on
    an overlong one: more than one byte, the last of them 0, which
    {!w_int} never writes. So each value reads from one byte string. *)

val r_str : reader -> string
val r_opt : (reader -> 'a) -> reader -> 'a option
val r_list : (reader -> 'a) -> reader -> 'a list
val r_id : reader -> Id.t

val r_bytes : reader -> int -> string
(** [r_bytes r n] consumes exactly [n] raw bytes. *)

(** {2 Elements} *)

val read_element : reader -> Element.t

val element_bytes : Element.t -> string
(** The canonical rendering of one element. *)

val digest_size : int
(** Byte width of {!digest}: 16. *)

val digest_hex : string -> string
(** Lowercase hex of a raw digest (display only). *)
