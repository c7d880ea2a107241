(* Quickstart: one concern, end to end.

   Builds a two-class PIM, applies the transactions concern to it with a
   parameter set S, and shows the three artifacts of the paper's Fig. 1:
   the refined model (CMT applied), the generated concrete aspect (CAC,
   specialized by the same S), and the woven code. *)

let pim () =
  let m = Mof.Model.create ~name:"shop" in
  let root = Mof.Model.root m in
  let m, order = Mof.Builder.add_class m ~owner:root ~name:"Order" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:order ~name:"total" ~typ:Mof.Kind.Dt_real
  in
  let m, op = Mof.Builder.add_operation m ~owner:order ~name:"checkout" in
  let m = Mof.Builder.set_result m ~op ~typ:Mof.Kind.Dt_boolean in
  let m, cart = Mof.Builder.add_class m ~owner:root ~name:"Cart" in
  let m, add = Mof.Builder.add_operation m ~owner:cart ~name:"addItem" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:add ~name:"sku" ~typ:Mof.Kind.Dt_string
  in
  m

let () =
  let project = Core.Project.create (pim ()) in

  (* One Fig. 1 refinement step: GMT(transactions) + S -> CMT, applied. *)
  let params =
    [
      ("transactional", Transform.Params.V_list [ Transform.Params.V_ident "Order" ]);
      ("isolation", Transform.Params.V_string "repeatable-read");
    ]
  in
  let project, step =
    match Core.Pipeline.refine project ~concern:"transactions" ~params with
    | Ok result -> result
    | Error e -> failwith (Core.Pipeline.error_to_string e)
  in
  print_endline "== refinement report ==";
  print_endline (Transform.Trace.summary step);

  print_endline "\n== refined model ==";
  print_string (Mof.Pp.model_to_string (Core.Project.model project));

  print_endline "\n== generated artifacts ==";
  match Core.Pipeline.build project with
  | Error e -> failwith (Core.Pipeline.error_to_string e)
  | Ok artifacts ->
      print_endline (Core.Artifacts.summary artifacts);
      print_endline "\n== concrete aspect (same parameter set) ==";
      print_endline (Core.Artifacts.render_aspects artifacts);
      print_endline "== woven Order.checkout ==";
      (match Code.Junit.find_class artifacts.Core.Artifacts.woven "Order" with
      | Some c -> (
          match Code.Jdecl.find_method c "checkout" with
          | Some m -> print_endline (Code.Printer.method_to_string m)
          | None -> ())
      | None -> ())
