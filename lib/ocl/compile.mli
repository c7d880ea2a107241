(** Parse-once constraint compilation.

    A compiled handle carries the raw AST (what {!Typecheck} sees), the
    planner-rewritten AST (what {!Eval} executes) and the number of probe
    sites the planner found. Handles are memoized per distinct source
    string in a domain-local table, so repeated checks of the same
    constraint body — the engine's steady state — never re-lex. Counters:
    [ocl.parse.hit] / [ocl.parse.miss]. *)

type t = {
  src : string;  (** the body string the handle was compiled from *)
  ast : Ast.t;  (** parser output, untouched *)
  planned : Ast.t;  (** after {!Plan.optimize} *)
  probes : int;  (** probe sites the planner rewrote *)
}

val compile : string -> (t, string) result
(** Memoized compile; error messages are identical to
    [Parser.parse_opt]'s. *)

val compile_exn : string -> t
(** Memoized compile raising the exact exception {!Parser.parse} raises
    on the same source ({!Parser.Parse_error} or [Lexer.Lexical_error]). *)
