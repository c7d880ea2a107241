(* A travel-booking system demonstrating the PIM-to-PSM projection and the
   ablation the paper's architecture implies: the same refined model built
   (a) the paper's way — functional code generator + aspect generators +
   weaving — and (b) the monolithic way — one code generator over the most
   specialized PSM, concern elements included, no aspects.

   The point the comparison makes executable: when one concern's parameters
   change, route (a) regenerates one aspect and re-weaves the unchanged
   functional code, while route (b) must re-derive everything from the
   model. *)

let pim () =
  let m = Mof.Model.create ~name:"travel" in
  let root = Mof.Model.root m in
  let m, booking = Mof.Builder.add_class m ~owner:root ~name:"Booking" in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:booking ~name:"reference"
      ~typ:Mof.Kind.Dt_string
  in
  let m, confirm = Mof.Builder.add_operation m ~owner:booking ~name:"confirm" in
  let m = Mof.Builder.set_result m ~op:confirm ~typ:Mof.Kind.Dt_boolean in
  let m, cancel = Mof.Builder.add_operation m ~owner:booking ~name:"cancel" in
  let m = Mof.Builder.set_result m ~op:cancel ~typ:Mof.Kind.Dt_void in
  let m, itin = Mof.Builder.add_class m ~owner:root ~name:"Itinerary" in
  let m, add = Mof.Builder.add_operation m ~owner:itin ~name:"addLeg" in
  let m, _ =
    Mof.Builder.add_parameter m ~op:add ~name:"origin" ~typ:Mof.Kind.Dt_string
  in
  let m, _ =
    Mof.Builder.add_parameter m ~op:add ~name:"destination"
      ~typ:Mof.Kind.Dt_string
  in
  m

let refine project ~concern ~params =
  match Core.Pipeline.refine project ~concern ~params with
  | Ok (project, step) ->
      Printf.printf "applied: %s\n" (Transform.Trace.summary step);
      project
  | Error e -> failwith (Core.Pipeline.error_to_string e)

let level_string project =
  match Concerns.Level.of_model (Core.Project.model project) with
  | Some l -> Concerns.Level.to_string l
  | None -> "unmarked"

let build_exn project =
  match Core.Pipeline.build project with
  | Ok artifacts -> artifacts
  | Error e -> failwith (Core.Pipeline.error_to_string e)

let () =
  let open Transform.Params in
  let project = Core.Project.create (pim ()) in
  Printf.printf "level before projection: %s\n" (level_string project);

  (* middleware concerns first, then the platform projection PIM -> PSM *)
  let project =
    refine project ~concern:"transactions"
      ~params:[ ("transactional", V_list [ V_ident "Booking" ]) ]
  in
  let project =
    refine project ~concern:"logging"
      ~params:
        [
          ("targets", V_list [ V_string "Booking"; V_string "Itinerary" ]);
          ("level", V_string "info");
        ]
  in
  let project =
    refine project ~concern:"platform"
      ~params:[ ("platform", V_string "corba") ]
  in
  Printf.printf "level after projection:  %s\n" (level_string project);
  Printf.printf "Booking stereotypes: %s\n"
    (match Mof.Query.find_class (Core.Project.model project) "Booking" with
    | Some c -> String.concat ", " c.Mof.Element.stereotypes
    | None -> "?");

  (* (a) the paper's route: functional code + aspects + weaving *)
  let artifacts = build_exn project in
  print_endline "\nroute (a) — functional codegen + aspect generators + weave:";
  print_endline (Core.Artifacts.summary artifacts);

  (* (b) the monolithic route: one generator over the refined PSM *)
  let monolithic = Core.Pipeline.monolithic_code project in
  Printf.printf
    "\nroute (b) — monolithic codegen over the full PSM: %d class(es), %d \
     method(s), 0 aspects\n"
    (List.length (Code.Junit.classes monolithic))
    (Code.Junit.total_methods monolithic);

  (* change one concern's parameters: only that aspect regenerates in (a) *)
  let project' =
    match Core.Pipeline.undo project with
    | Some p -> p (* drop platform projection *)
    | None -> failwith "undo"
  in
  let project' =
    match Core.Pipeline.undo project' with
    | Some p -> p (* drop logging *)
    | None -> failwith "undo"
  in
  let project' =
    refine project' ~concern:"logging"
      ~params:
        [
          ("targets", V_list [ V_string "Booking" ]);
          ("level", V_string "warn");
        ]
  in
  let artifacts' = build_exn project' in
  print_endline
    "\nafter reconfiguring the logging concern (targets/level changed):";
  print_endline (Core.Artifacts.precedence_listing artifacts');
  Printf.printf "functional code unchanged: %b\n"
    (Code.Junit.equal artifacts.Core.Artifacts.functional
       artifacts'.Core.Artifacts.functional)
