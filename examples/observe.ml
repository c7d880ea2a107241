(* Observing the woven system at runtime.

   The previous examples show the *artifacts* of the pipeline; this one
   executes them. The code-model interpreter runs the woven banking program
   against a middleware runtime that records events, making the paper's
   claims observable:
   - each concern's advice fires, parameterized by its S_i,
   - advice order at shared join points equals transformation order,
   - an injected fault flips the transaction tail from commit to rollback. *)

let v_names names =
  Transform.Params.V_list (List.map (fun n -> Transform.Params.V_ident n) names)

let refine project concern params =
  match Core.Pipeline.refine project ~concern ~params with
  | Ok (project, step) ->
      Printf.printf "applied: %s\n" (Transform.Trace.summary step);
      project
  | Error e -> failwith (Core.Pipeline.error_to_string e)

let banking_pim () =
  let m = Mof.Model.create ~name:"banking" in
  let root = Mof.Model.root m in
  let m, acct = Mof.Builder.add_class m ~owner:root ~name:"Account" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:acct ~name:"balance" ~typ:Mof.Kind.Dt_real
  in
  let m, dep = Mof.Builder.add_operation m ~owner:acct ~name:"deposit" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:dep ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  let m, audit = Mof.Builder.add_operation m ~owner:acct ~name:"audit" in
  ignore audit;
  m

let print_events label events =
  Printf.printf "\n%s:\n" label;
  List.iter
    (fun e -> Printf.printf "  %s\n" (Interp.Event.to_string e))
    events

let () =
  let project = Core.Project.create (banking_pim ()) in
  let project =
    refine project "distribution"
      [
        ("remote", v_names [ "Account" ]);
        ("registry", Transform.Params.V_string "bankhost:2809");
      ]
  in
  let project =
    refine project "transactions"
      [
        ("transactional", v_names [ "Account" ]);
        ("isolation", Transform.Params.V_string "repeatable-read");
      ]
  in
  let project =
    refine project "logging"
      [ ("targets", Transform.Params.V_list [ Transform.Params.V_string "Account" ]) ]
  in

  (* route the deposit stub through the audit helper so a fault can be
     injected inside the transactional region *)
  let functional =
    Code.Junit.update_class
      (Core.Pipeline.functional_code project)
      "Account"
      (Code.Jdecl.map_methods (fun m ->
           if m.Code.Jdecl.method_name = "deposit" then
             {
               m with
               Code.Jdecl.body =
                 Some [ Code.Jstmt.S_expr (Code.Jexpr.E_call (None, "audit", [])) ];
             }
           else m))
  in
  let generated =
    match Core.Pipeline.aspects project with Ok g -> g | Error e -> failwith (Core.Pipeline.error_to_string e)
  in
  let woven = (Weaver.Weave.weave generated functional).Weaver.Weave.program in

  (* 1. the happy path: export, log-enter, begin, …, commit, log-exit *)
  let ok =
    Interp.Machine.run woven ~class_name:"Account" ~method_name:"deposit"
      ~args:[ Interp.Rvalue.V_double 100.0 ]
  in
  print_events "deposit(100.0) — normal run" ok.Interp.Machine.events;

  (* 2. fault injection: audit throws inside the transaction *)
  let faulty =
    Interp.Machine.run
      ~faults:[ ("Account", "audit") ]
      woven ~class_name:"Account" ~method_name:"deposit"
      ~args:[ Interp.Rvalue.V_double 100.0 ]
  in
  print_events "deposit(100.0) — audit fault injected" faulty.Interp.Machine.events;
  Printf.printf "\nresult: %s\n"
    (match faulty.Interp.Machine.result with
    | Ok v -> "returned " ^ Interp.Rvalue.to_string v
    | Error cls -> "threw " ^ cls)
