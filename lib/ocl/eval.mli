(** Evaluator for the OCL subset over a {!Mof.Model}.

    Semantics follow OCL 1.x where the subset overlaps:
    - [Integer] conforms to [Real]; mixed arithmetic promotes.
    - Boolean connectives use three-valued logic: [true or undefined] is
      [true], [false and undefined] is [false], [false implies x] is [true];
      otherwise undefined operands yield undefined.
    - Property navigation on a collection is the implicit-collect shorthand
      and flattens one level.
    - Division by zero, out-of-range [at], and navigation on undefined yield
      [V_undefined] rather than raising.

    Genuinely ill-formed programs — unknown variables, unknown properties,
    wrongly-typed operator applications — raise {!Eval_error} so that broken
    constraints fail loudly instead of silently evaluating to undefined. *)

exception Eval_error of string

val eval : Mof.Model.t -> Env.t -> Ast.t -> Value.t
(** [eval m env e] evaluates [e] against model [m].
    @raise Eval_error as described above. *)

val eval_parsed : Mof.Model.t -> Env.t -> Compile.t -> Value.t
(** Evaluate a compiled handle (its planned AST); what every caller with a
    reusable constraint should hold instead of a source string. *)

val eval_string : Mof.Model.t -> Env.t -> string -> Value.t
(** Compile (memoized — no re-lexing of repeated sources) then evaluate.
    @raise Parser.Parse_error / {!Eval_error}. *)

val holds : Mof.Model.t -> Env.t -> string -> bool
(** [holds m env src] parses and evaluates [src] and is [true] exactly when
    the result is [V_bool true]. Undefined counts as not holding. *)
