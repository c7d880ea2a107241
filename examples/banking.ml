(* The paper's running example (Fig. 2): a banking system refined along
   three middleware concern-dimensions — C1 distribution, C2 transactions,
   C3 security — as transformations T1<p11,...>, T2<...>, T3<...> with
   automatically generated aspects A1, A2, A3 whose precedence is the
   transformation application order. Follows the default middleware
   workflow, showing the guidance and the concern coloring along the way. *)

let pim () =
  let m = Mof.Model.create ~name:"banking" in
  let root = Mof.Model.root m in
  let m, bank = Mof.Builder.add_package m ~owner:root ~name:"bank" in
  let m, acct = Mof.Builder.add_class m ~owner:bank ~name:"Account" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:acct ~name:"number" ~typ:Mof.Kind.Dt_string
  in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:acct ~name:"balance" ~typ:Mof.Kind.Dt_real
  in
  let m, dep = Mof.Builder.add_operation m ~owner:acct ~name:"deposit" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:dep ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  let m, wd = Mof.Builder.add_operation m ~owner:acct ~name:"withdraw" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:wd ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  let m = Mof.Builder.set_result m ~op:wd ~typ:Mof.Kind.Dt_boolean in
  let m, teller = Mof.Builder.add_class m ~owner:bank ~name:"Teller" in
  let m, tr = Mof.Builder.add_operation m ~owner:teller ~name:"transfer" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:tr ~name:"from" ~typ:(Mof.Kind.Dt_ref acct)
  in
  let m, _ =
    Mof.Builder.add_parameter m ~op:tr ~name:"target" ~typ:(Mof.Kind.Dt_ref acct)
  in
  let m, _ =
    Mof.Builder.add_parameter m ~op:tr ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  let m, customer = Mof.Builder.add_class m ~owner:bank ~name:"Customer" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:customer ~name:"name" ~typ:Mof.Kind.Dt_string
  in
  let m, _ =
    Mof.Builder.add_association m ~owner:bank ~name:"holds"
      ~ends:
        [
          {
            Mof.Kind.end_name = "owner";
            end_type = customer;
            end_mult = Mof.Kind.mult_one;
            end_navigable = true;
            end_aggregation = Mof.Kind.Ag_none;
          };
          {
            Mof.Kind.end_name = "accounts";
            end_type = acct;
            end_mult = Mof.Kind.mult_many;
            end_navigable = true;
            end_aggregation = Mof.Kind.Ag_none;
          };
        ]
  in
  m

let show_guidance project =
  match Core.Project.progress project with
  | Some p -> print_endline (Workflow.Guidance.describe p)
  | None -> ()

let refine project ~concern ~params =
  let project, step =
    match Core.Pipeline.refine project ~concern ~params with
    | Ok result -> result
    | Error e -> failwith (Core.Pipeline.error_to_string e)
  in
  Printf.printf "\napplied: %s\n" (Transform.Trace.summary step);
  show_guidance project;
  project

let () =
  let open Transform.Params in
  let project =
    Core.Project.create ~workflow:Workflow.State.middleware_default (pim ())
  in
  print_endline "== banking PIM ==";
  print_string (Mof.Pp.model_to_string (Core.Project.model project));
  show_guidance project;

  (* T1: distribution, S1 = {remote, protocol, registry} *)
  let project =
    refine project ~concern:"distribution"
      ~params:
        [
          ("remote", V_list [ V_ident "Account"; V_ident "Teller" ]);
          ("protocol", V_string "corba");
          ("registry", V_string "bankhost:2809");
        ]
  in
  (* T2: transactions, S2 *)
  let project =
    refine project ~concern:"transactions"
      ~params:
        [
          ("transactional", V_list [ V_ident "Account"; V_ident "Teller" ]);
          ("isolation", V_string "serializable");
          ("propagation", V_string "required");
        ]
  in
  (* T3: security, S3 *)
  let project =
    refine project ~concern:"security"
      ~params:
        [
          ("secured", V_list [ V_ident "Teller" ]);
          ("roles", V_list [ V_string "teller"; V_string "branch-manager" ]);
          ("authentication", V_string "certificate");
        ]
  in

  print_endline "\n== concern demarcation (Section 3 coloring) ==";
  print_endline (Core.Project.coloring project);

  print_endline "\n== repository history ==";
  print_endline (Core.Project.history project);

  print_endline "\n== build: functional code + A1, A2, A3 + weave ==";
  match Core.Pipeline.build project with
  | Error e -> failwith (Core.Pipeline.error_to_string e)
  | Ok artifacts ->
      print_endline (Core.Artifacts.summary artifacts);
      print_endline "\naspect precedence (= transformation order):";
      print_endline (Core.Artifacts.precedence_listing artifacts);
      print_endline "\n== A1/A2/A3 ==";
      print_endline (Core.Artifacts.render_aspects artifacts);
      print_endline "== woven Teller.transfer ==";
      (match Code.Junit.find_class artifacts.Core.Artifacts.woven "Teller" with
      | Some c -> (
          match Code.Jdecl.find_method c "transfer" with
          | Some m -> print_endline (Code.Printer.method_to_string m)
          | None -> ())
      | None -> ());
      print_endline "\n== advice applications ==";
      List.iter
        (fun (a : Weaver.Weave.application) ->
          Printf.printf "%s / %s @ %s\n" a.Weaver.Weave.aspect_name
            a.Weaver.Weave.advice_name a.Weaver.Weave.at)
        artifacts.Core.Artifacts.applications
