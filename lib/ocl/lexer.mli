(** Hand-written lexer for the OCL subset. *)

exception Lexical_error of string * int
(** [Lexical_error (message, offset)]. *)

val tokenize : string -> Token.located list
(** [tokenize src] is the token stream of [src], ending with {!Token.Eof}.
    Comments run from ["--"] to end of line. String literals are single
    quoted with [''] as the escaped quote. [$name$] is one identifier
    token, dollars included; any other [$] is an error.
    @raise Lexical_error on any malformed input. *)
