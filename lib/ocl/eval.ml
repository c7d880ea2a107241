(* The OCL evaluator: a walk over the (planned) AST. All value-level
   semantics live in [Prim]; this module only decides how operands are
   produced. Operand evaluation is pinned left to right, down to which
   operand's error surfaces first. *)

exception Eval_error = Prim.Eval_error

let error = Prim.error

let rec eval m env e =
  match e with
  | Ast.E_int n -> Value.V_int n
  | Ast.E_real f -> Value.V_real f
  | Ast.E_string s -> Value.V_string s
  | Ast.E_bool b -> Value.V_bool b
  | Ast.E_self -> (
      match Env.self env with
      | Some v -> v
      | None -> error "self is not bound in this context")
  | Ast.E_var v -> (
      match Env.lookup v env with
      | Some value -> value
      | None -> error "unknown variable %s" v)
  | Ast.E_collection (kind, items) ->
      let values = List.map (eval m env) items in
      (match kind with
      | Ast.Ck_set -> Value.set values
      | Ast.Ck_sequence -> Value.seq values
      | Ast.Ck_bag -> Value.bag values)
  | Ast.E_if (c, t, f) ->
      Prim.if3 (eval m env c)
        ~then_:(fun () -> eval m env t)
        ~else_:(fun () -> eval m env f)
  | Ast.E_let (v, bound, body) ->
      let value = eval m env bound in
      eval m (Env.bind v value env) body
  | Ast.E_not e' -> Prim.not3 (eval m env e')
  | Ast.E_neg e' -> Prim.neg (eval m env e')
  | Ast.E_binop (op, a, b) -> (
      match op with
      | Ast.Op_and -> Prim.and_step (eval m env a) ~rhs:(fun () -> eval m env b)
      | Ast.Op_or -> Prim.or_step (eval m env a) ~rhs:(fun () -> eval m env b)
      | Ast.Op_implies ->
          Prim.implies_step (eval m env a) ~rhs:(fun () -> eval m env b)
      | _ ->
          let va = eval m env a in
          let vb = eval m env b in
          Prim.strict_binop op va vb)
  | Ast.E_prop (recv, name) -> Prim.prop m (eval m env recv) name
  | Ast.E_call (recv, name, args) -> (
      (* Classifier.allInstances(): the receiver is a metaclass name, not
         a variable — resolve before ordinary evaluation. *)
      match (recv, name, args) with
      | Ast.E_var c, "allInstances", [] when Env.lookup c env = None ->
          Prim.all_instances m c
      | _, ("oclIsKindOf" | "oclIsTypeOf" | "oclAsType"), [ Ast.E_var ty ] ->
          Prim.type_op m name ty (eval m env recv)
      | _, _, _ ->
          let v = eval m env recv in
          let arg_values = List.map (eval m env) args in
          Prim.call m v name arg_values)
  | Ast.E_coll_op (recv, name, args) ->
      Prim.coll_op name (eval m env recv) ~args:(fun () ->
          List.map (eval m env) args)
  | Ast.E_iter (recv, name, vars, body) ->
      let v = eval m env recv in
      let eval_one item =
        match vars with
        | [ var ] -> eval m (Env.bind var item env) body
        | _ -> assert false (* Prim.iter only calls this when nvars = 1 *)
      in
      let eval_tuple tuple =
        let env =
          List.fold_left2
            (fun env var item -> Env.bind var item env)
            env vars tuple
        in
        eval m env body
      in
      Prim.iter name v ~nvars:(List.length vars) ~eval_one ~eval_tuple
  | Ast.E_probe_exists_name (classifier, rhs, orig) ->
      (* equivalence guards: the planner proved the shape at compile time,
         but only the evaluation environment knows whether the classifier
         name is shadowed *)
      if Env.lookup classifier env <> None then eval m env orig
      else Prim.probe_exists m classifier ~rhs:(fun () -> eval m env rhs)
  | Ast.E_probe_select_name (classifier, rhs, orig) ->
      if Env.lookup classifier env <> None then eval m env orig
      else Prim.probe_select m classifier ~rhs:(fun () -> eval m env rhs)
  | Ast.E_probe_forall_guard (classifier, guard, var, body, orig) ->
      if Env.lookup classifier env <> None then eval m env orig
      else
        Prim.probe_forall m classifier
          ~guard:(fun () -> eval m env guard)
          ~body:(fun id -> eval m (Env.bind var (Value.V_elem id) env) body)
          ~fold:(fun () -> eval m env orig)
  | Ast.E_iterate (recv, v, acc, init, body) ->
      Prim.iterate (eval m env recv)
        ~init:(fun () -> eval m env init)
        ~step:(fun acc_value item ->
          eval m (Env.bind v item (Env.bind acc acc_value env)) body)

(* Count top-level evaluations (one per constraint body / context instance),
   not recursive descents — the recursion above still calls the inner
   [eval] directly. *)
let eval m env e =
  Obs.incr "ocl.eval" [];
  eval m env e

let eval_string m env src = eval m env (Plan.optimize (Parser.parse src))
