(* An online auction system refined with concurrency, security, and
   logging. Demonstrates, beyond the banking scenario:
   - XMI export/import of the refined model (Section 3 interchange),
   - the Undo/Redo facility of the model repository,
   - evaluating ad-hoc OCL queries against the refined model. *)

let pim () =
  let m = Mof.Model.create ~name:"auctions" in
  let root = Mof.Model.root m in
  let m, auction = Mof.Builder.add_class m ~owner:root ~name:"Auction" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:auction ~name:"highestBid"
      ~typ:Mof.Kind.Dt_real
  in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:auction ~name:"open"
      ~typ:Mof.Kind.Dt_boolean ~initial:"true"
  in
  let m, bid = Mof.Builder.add_operation m ~owner:auction ~name:"placeBid" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:bid ~name:"amount" ~typ:Mof.Kind.Dt_real
  in
  let m = Mof.Builder.set_result m ~op:bid ~typ:Mof.Kind.Dt_boolean in
  let m, close = Mof.Builder.add_operation m ~owner:auction ~name:"close" in
  let m = Mof.Builder.set_result m ~op:close ~typ:Mof.Kind.Dt_void in
  let m, bidder = Mof.Builder.add_class m ~owner:root ~name:"Bidder" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:bidder ~name:"alias" ~typ:Mof.Kind.Dt_string
  in
  let m, reg = Mof.Builder.add_operation m ~owner:bidder ~name:"register" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:reg ~name:"email" ~typ:Mof.Kind.Dt_string
  in
  m

let refine project ~concern ~params =
  match Core.Pipeline.refine project ~concern ~params with
  | Ok (project, step) ->
      Printf.printf "applied: %s\n" (Transform.Trace.summary step);
      project
  | Error e -> failwith (Core.Pipeline.error_to_string e)

let () =
  let open Transform.Params in
  let project = Core.Project.create (pim ()) in

  let project =
    refine project ~concern:"concurrency"
      ~params:
        [
          ("guarded", V_list [ V_ident "Auction" ]);
          ("policy", V_string "reader-writer");
        ]
  in
  let project =
    refine project ~concern:"security"
      ~params:
        [
          ("secured", V_list [ V_ident "Auction"; V_ident "Bidder" ]);
          ("roles", V_list [ V_string "registered-bidder" ]);
        ]
  in
  let project =
    refine project ~concern:"logging"
      ~params:[ ("targets", V_list [ V_string "*" ]); ("level", V_string "debug") ]
  in

  (* XMI round-trip of the refined model *)
  let xmi_text = Xmi.Export.to_string (Core.Project.model project) in
  let reimported = Xmi.Import.from_string xmi_text in
  Printf.printf "\nXMI round-trip: %d bytes, equal = %b\n"
    (String.length xmi_text)
    (Mof.Model.equal (Core.Project.model project) reimported);

  (* Ad-hoc OCL over the refined model *)
  let queries =
    [
      "Class.allInstances()->select(c | c.hasStereotype('synchronized'))->collect(c | c.name)";
      "Class.allInstances()->select(c | c.hasStereotype('secured'))->size()";
      "Class.allInstances()->exists(c | c.name = 'LockManager')";
    ]
  in
  print_endline "\nOCL queries over the refined model:";
  List.iter
    (fun q ->
      let v = Ocl.Eval.eval_string reimported Ocl.Env.empty q in
      Printf.printf "  %s\n    = %s\n" q (Ocl.Value.to_string v))
    queries;

  (* Undo / redo *)
  print_endline "\nrepository before undo:";
  print_endline (Core.Project.history project);
  let project' =
    match Core.Pipeline.undo project with
    | Some p -> p
    | None -> failwith "nothing to undo"
  in
  Printf.printf "\nafter undo: %d transformations applied, redo target: %s\n"
    (List.length (Core.Project.applied project'))
    (Option.value ~default:"none" (Core.Pipeline.redo_info project'));

  (* build the undone project: logging aspect should be absent *)
  match Core.Pipeline.build project' with
  | Error e -> failwith (Core.Pipeline.error_to_string e)
  | Ok artifacts ->
      print_endline "\nartifacts after undo:";
      print_endline (Core.Artifacts.summary artifacts);
      print_endline (Core.Artifacts.precedence_listing artifacts)
