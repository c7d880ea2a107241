(** Hand-written lexer for the OCL subset. *)

exception Lexical_error of string * int
(** [Lexical_error (message, offset)]. *)

val next : string -> int -> Token.located * int
(** [next src i] is the first token of [src] at or after offset [i], and
    the offset just past it; {!Token.Eof} at the end of the input, as often
    as asked. Comments run from ["--"] to end of line. String literals are
    single quoted with [''] as the escaped quote. [$name$] is one
    identifier token, dollars included; any other [$] is an error. The
    parser pulls its tokens through this one at a time, so it lexes only as
    far as it reads.
    @raise Lexical_error on a malformed token. *)
