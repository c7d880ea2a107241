(** XMI import: interchange documents back to models.

    [import (Export.to_string m)] reconstructs a model structurally equal to
    [m] — ids, containment order, stereotypes, tagged values, and constraint
    bodies included. This round-trip property is what tool interoperability
    (the paper's Section 3 XMI requirement) rests on, and it is enforced by
    property-based tests.

    The importer consumes {!Xml_parser}'s events directly and builds no
    document tree: one function per element reads its children once,
    collecting stereotypes, tagged values, association ends, literals, the
    first [Constraint.body] and the owned elements. The first [XMI.content]
    and the first [Model] in it are read; text between elements is ignored. *)

exception Import_error of string

type error =
  | Malformed_xml of { offset : int; message : string }
      (** The document is not well-formed XML; [offset] is where the reader
          stopped. A document that is not well formed is reported as such
          even when it is also invalid XMI. *)
  | Invalid_xmi of string
      (** Well-formed XML that is not valid XMI produced by {!Export}
          (missing attributes, unknown tags, malformed ids, …). *)

val error_to_string : error -> string
(** ["XML parse error at offset N: …"] or ["XMI import: …"]. *)

val parse : string -> (Mof.Model.t, error) result
(** Reconstructs a model from XMI text. *)

val from_string : string -> Mof.Model.t
(** {!parse}, raising.
    @raise Xml_parser.Xml_error on malformed XML
    @raise Import_error on malformed XMI. *)

val read_file : string -> (Mof.Model.t, string) result
(** {!parse} on a file's contents: the model, or the file error or the
    parse error rendered by {!error_to_string}. *)
