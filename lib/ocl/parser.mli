(** Recursive-descent parser for the OCL subset.

    Grammar (low to high precedence): [implies] < [or]/[xor] < [and] <
    relational < additive < multiplicative < unary < postfix navigation
    ([.] and [->]). Iterator operations ([forAll], [select], …) take the
    [vars | body] form; [iterate] takes [v; acc = init | body]. *)

exception Parse_error of string * int
(** [Parse_error (message, offset)] with the 0-based offset in the source. *)

val parse : string -> Ast.t
(** Parses a complete expression; trailing input is an error. Nesting is
    bounded: an expression nested more than 256 levels deep (in
    parentheses, arguments, iterator bodies, [if] or [let] branches, prefix
    [-] or [not], right operands of [implies], type arguments) is refused
    at its offset with "nested deeper than 256 levels". Tokens are lexed
    as the parse reaches them, so a refusal costs what was read up to it.
    @raise Parse_error on syntax errors and nesting past the bound
    @raise Lexer.Lexical_error on lexical errors. *)

val parse_opt : string -> (Ast.t, string) result
(** Like {!parse}, but packaging lexical and syntax errors as
    [Error message]. *)
