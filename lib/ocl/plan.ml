(* Pattern-directed query planning over the parsed AST.

   [optimize] walks an expression bottom-up and rewrites the three shapes
   that dominate condition checking —

     K.allInstances()->exists(x | x.name = e)
     K.allInstances()->select(x | x.name = e)
     K.allInstances()->forAll(x | G->includes(x.name) implies body)

   — into probe nodes that the evaluator answers from the model's name
   index instead of folding over the classifier extent. A rewrite is only
   taken when it is observationally equivalent to the fold:

   - [K] must be a known metaclass (the parser cannot know, but the planner
     can: unknown classifiers must keep raising through the generic path);
   - one side of the equality must be exactly [x.name] and the other side
     must not mention the iterator variable (else it would be re-evaluated
     under the binding);
   - for the guarded forAll, the guard must be a literal collection of
     string constants or a variable other than [x] (the builtin concerns'
     [$param$] guards): the evaluator's [implies] short-circuits on a
     false antecedent, so under the fold the consequent is evaluated
     exactly on the elements whose name occurs in the guard — the very set
     a name-index probe returns. Evaluating such a guard is pure, so
     skipping its per-element re-evaluation is unobservable; the evaluator
     reads it only over a non-empty extent (where the fold would too) and
     leaves the node to the fold when its value is not a collection of
     strings;
   - the original expression is kept inside the probe node, so the
     evaluator can fall back to it when [K] turns out to be shadowed by an
     environment binding at evaluation time, and printers/var-folds see the
     surface syntax. *)

let mentions var e =
  Ast.fold_vars (fun v found -> found || String.equal v var) e false

let name_of it = function
  | Ast.E_prop (Ast.E_var v, "name") -> String.equal v it
  | _ -> false

(* A guard whose evaluation is pure and independent of the iterator: a
   literal collection of strings, or a variable other than [it]. *)
let plain_guard it = function
  | Ast.E_collection (_, lits) ->
      List.for_all (function Ast.E_string _ -> true | _ -> false) lits
  | Ast.E_var v -> not (String.equal v it)
  | _ -> false

(* The candidate node has already had its children optimized; [node] is
   both the pattern under test and the fallback we embed. *)
let probe_of node =
  match node with
  | Ast.E_iter
      ( Ast.E_call (Ast.E_var k, "allInstances", []),
        (("exists" | "select") as it),
        [ x ],
        Ast.E_binop (Ast.Op_eq, a, b) )
    when Meta.is_metaclass k ->
      let rhs =
        if name_of x a && not (mentions x b) then Some b
        else if name_of x b && not (mentions x a) then Some a
        else None
      in
      Option.map
        (fun rhs ->
          if String.equal it "exists" then Ast.E_probe_exists_name (k, rhs, node)
          else Ast.E_probe_select_name (k, rhs, node))
        rhs
  | Ast.E_iter
      ( Ast.E_call (Ast.E_var k, "allInstances", []),
        "forAll",
        [ x ],
        Ast.E_binop
          ( Ast.Op_implies,
            Ast.E_coll_op (guard, "includes", [ a ]),
            body ) )
    when Meta.is_metaclass k && name_of x a && plain_guard x guard ->
      Some (Ast.E_probe_forall_guard (k, guard, x, body, node))
  | _ -> None

let optimize_count e =
  let count = ref 0 in
  let rec walk e =
    let e' =
      match e with
      | Ast.E_int _ | Ast.E_real _ | Ast.E_string _ | Ast.E_bool _
      | Ast.E_self | Ast.E_var _ ->
          e
      | Ast.E_collection (ck, items) ->
          Ast.E_collection (ck, List.map walk items)
      | Ast.E_if (c, t, f) -> Ast.E_if (walk c, walk t, walk f)
      | Ast.E_let (v, bound, body) -> Ast.E_let (v, walk bound, walk body)
      | Ast.E_binop (op, a, b) -> Ast.E_binop (op, walk a, walk b)
      | Ast.E_not e' -> Ast.E_not (walk e')
      | Ast.E_neg e' -> Ast.E_neg (walk e')
      | Ast.E_prop (e', n) -> Ast.E_prop (walk e', n)
      | Ast.E_call (e', n, args) -> Ast.E_call (walk e', n, List.map walk args)
      | Ast.E_coll_op (e', n, args) ->
          Ast.E_coll_op (walk e', n, List.map walk args)
      | Ast.E_iter (e', n, vars, body) ->
          Ast.E_iter (walk e', n, vars, walk body)
      | Ast.E_iterate (e', v, acc, init, body) ->
          Ast.E_iterate (walk e', v, acc, walk init, walk body)
      | Ast.E_probe_exists_name _ | Ast.E_probe_select_name _
      | Ast.E_probe_forall_guard _ ->
          (* never in parser output; idempotent on replanning *)
          e
    in
    match probe_of e' with
    | Some probe ->
        incr count;
        probe
    | None -> e'
  in
  let planned = walk e in
  (planned, !count)

let optimize e = fst (optimize_count e)
