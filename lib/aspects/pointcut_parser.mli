(** Parser for the textual pointcut syntax produced by
    {!Pointcut.to_string} and accepted by tool front-ends:

    {v
    pointcut := term ( "||" term )*
    term     := factor ( "&&" factor )*
    factor   := "!" factor | "(" pointcut ")" | primitive
    primitive:= "execution" "(" CLASS "." METHOD ")"
              | "call"      "(" CLASS "." METHOD ")"
              | "set"       "(" CLASS "." FIELD ")"
              | "within"    "(" CLASS ")"
    v}

    Class/method/field positions are wildcard patterns ([*] allowed). *)

val parse : string -> (Pointcut.t, string) result
(** [parse src] is the pointcut denoted by [src], or a located error
    message. Nesting is bounded: each ["("], each ["!"] and each right
    operand of ["&&"] or ["||"] the parser descends into is one level, and
    input nested deeper than 256 levels (the XML reader's bound too) is
    refused at the offset where the bound was crossed, without reading
    further.

    The round trip [parse (Pointcut.to_string pc)] re-reads any rendered
    pointcut at most 128 combinators deep: {!Pointcut.to_string} wraps each
    [And] and [Or] in parentheses, so one costs at most two levels (its
    parenthesis and its right operand) and a [Not] one. A stack of up to
    256 [Not]s round-trips too. *)
