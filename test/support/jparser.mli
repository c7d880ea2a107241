(** Parser for the Java-like source subset emitted by {!Code.Printer}: the
    printer's round-trip reference. No step of the pipeline reads Java-like
    text, so the parser lives with the tests rather than in [lib/code].

    The subset covers everything the code model can express — compilation
    units, classes/interfaces, fields, methods, the statement forms of
    {!Code.Jstmt}, and the expression forms of {!Code.Jexpr} — so that
    parsing a printed unit reconstructs it exactly (the round-trip property
    the test suite enforces). Line comments become {!Code.Jstmt.S_comment}
    inside method bodies and are skipped elsewhere. *)

open Code

exception Parse_error of string * int

val parse_unit : string -> Junit.t
(** Parses one compilation unit.
    @raise Parse_error / {!Jlexer.Lex_error} on malformed input. *)

val parse_unit_opt : string -> (Junit.t, string) result

val parse_expr : string -> Jexpr.t
(** Parses a standalone expression (for tests and tooling). *)

val parse_stmt : string -> Jstmt.t
(** Parses a standalone statement. *)
