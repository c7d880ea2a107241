(** Pattern-directed query planner.

    Rewrites [K.allInstances()->exists(x | x.name = e)] and
    [K.allInstances()->select(x | x.name = e)] (either orientation of the
    equality) into name-index probe nodes ({!Ast.E_probe_exists_name},
    {!Ast.E_probe_select_name}) when the rewrite is observationally
    equivalent to the extent fold: [K] is a known metaclass and [e] does
    not mention the iterator variable. Likewise
    [K.allInstances()->forAll(x | G->includes(x.name) implies body)], where
    the guard [G] is a literal collection of strings or a variable other
    than [x] (a [$param$]), becomes {!Ast.E_probe_forall_guard}.
    Everything else is rebuilt unchanged. The original subtree is embedded
    in the probe node, so the evaluator falls back to it when [K] is
    shadowed by a binding, and printing/variable-folding still see the
    surface syntax. {!Constraint_.check_naive} evaluates the unplanned AST
    and is the reference the [ocl] oracle holds probes to. *)

val optimize : Ast.t -> Ast.t
