(** Matching pointcuts against join-point shadows. *)

val matches : Aspects.Pointcut.t -> Joinpoint.shadow -> bool
(** Kinded pointcuts ([execution], [call], [set]) only match shadows of
    their kind; [within] matches any shadow by enclosing class.

    A [call] shadow whose receiver class could not be statically resolved
    matches *optimistically*: the receiver could be any class at runtime,
    so the class pattern never excludes it and only the method pattern
    filters — [call(Acc*.deposit)] matches an unresolved-receiver call to
    [deposit]. (Earlier versions special-cased the literal ["*"] class
    pattern and silently dropped every other pattern at unresolved
    receivers.) Combine with [within(...)] to narrow where an optimistic
    match is too broad. Calls with a resolved receiver match the class
    pattern against that class, as before.

    Staged: [matches pc] compiles a pattern-specialized decider —
    literal, ["*"], prefix, suffix and infix patterns skip the generic
    wildcard DP — and returns it, so partially apply it outside loops
    over shadows. *)

val matches_tree : Aspects.Pointcut.t -> Joinpoint.shadow -> bool
(** The reference semantics: a direct walk over the pointcut AST, with no
    decider compilation. The [matcher] oracle checks {!matches} against
    it. *)

val kinds : Aspects.Pointcut.t -> bool * bool
(** [(wants_exec, wants_stmt)]: which shadow domains advice on this
    pointcut applies to. Execution advice weaves at execution shadows,
    statement advice wraps statements at call/set shadows; a pure
    [within] pointcut wants neither (it constrains, it does not select),
    so advice gated on it is inert. The weaver and the interference
    analysis share this gate. *)
