(** XML pull reader for the interchange subset: prolog, comments, CDATA,
    elements, attributes (single or double quoted), character data, and the
    five predefined entities plus decimal/hex character references.

    Not supported (not needed for XMI interchange): DTDs, processing
    instructions other than the prolog, namespace resolution.

    The reader walks the source once and builds no tree. It tests bytes in
    place, bounds every scan to the current token, and copies a value through
    a buffer only when the value holds a reference. Every error carries the
    document offset at which it was found. *)

exception Xml_error of string * int
(** [Xml_error (message, offset)]. *)

val max_depth : int
(** The deepest element nesting the reader accepts (256). An element opened
    below it raises {!Xml_error} at the offset of its [<]. *)

type event =
  | Open of string * (string * string) list
      (** A start tag (or an empty-element tag, which is followed at once by
          its {!Close}): the tag and its attributes in document order, values
          resolved. *)
  | Close  (** The end of the innermost open element. *)
  | Text of string
      (** Character data or a CDATA section inside an element, references
          resolved. Whitespace-only character data yields no event. *)
  | Eof  (** The root element has closed and only misc markup followed. *)

type reader

val reader : string -> reader
(** A reader positioned at the start of a document. *)

val next : reader -> event
(** The next event. A well-formed document yields one root {!Open}, balanced
    {!Close}s, then {!Eof} forever.
    @raise Xml_error on malformed input, at the first offending offset. *)

val skip : reader -> unit
(** Consumes the events of the element whose {!Open} was just read, up to and
    including its {!Close}, checking that they are well formed. *)

val parse : string -> Xml.t
(** The document's root element as a tree: a fold over {!next}. Whitespace-only
    text between elements is dropped; other text is kept verbatim.
    @raise Xml_error on malformed input. *)
