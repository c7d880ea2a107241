(* The extension APIs, in one sitting:
   1. register a user-defined concern (caching) — the registry validates
      that its GMT and GAC share formals and that its generic OCL
      conditions typecheck;
   2. compose two generic transformations into one composite GMT over a
      merged parameter set (the paper's open composition question);
   3. derive the allowed transformation sequence from declared concern
      dependencies instead of writing the workflow by hand. *)

let v_names names =
  Transform.Params.V_list (List.map (fun n -> Transform.Params.V_ident n) names)

(* ---- 1. a user-defined caching concern ---------------------------------- *)

let caching_formals =
  [
    Transform.Params.decl "cached"
      (Transform.Params.P_list Transform.Params.P_ident)
      ~doc:"classes whose query operations are cached";
    Transform.Params.decl "capacity" Transform.Params.P_int
      ~default:(Transform.Params.V_int 128) ~doc:"cache capacity";
  ]

let caching_gmt =
  Transform.Gmt.make ~name:"T.caching" ~concern:"caching"
    ~formals:caching_formals
    ~preconditions:
      [
        Ocl.Constraint_.make ~name:"cached-classes-exist"
          "$cached$->forAll(n | Class.allInstances()->exists(c | c.name = n))";
        Ocl.Constraint_.make ~name:"positive-capacity" "$capacity$ > 0";
      ]
    ~postconditions:
      [
        Ocl.Constraint_.make ~name:"marked"
          "Class.allInstances()->forAll(c | $cached$->includes(c.name) \
           implies c.hasStereotype('cached'))";
      ]
    (fun set m ->
      let capacity = Transform.Params.get_int set "capacity" in
      List.fold_left
        (fun m name ->
          match Mof.Query.find_class m name with
          | Some cls ->
              let m =
                Mof.Builder.add_stereotype m cls.Mof.Element.id "cached"
              in
              Mof.Builder.set_tag m cls.Mof.Element.id "cacheCapacity"
                (string_of_int capacity)
          | None -> Transform.Gmt.rewrite_error "class %s missing" name)
        m
        (Transform.Params.get_names set "cached"))

let caching_gac =
  Aspects.Generic.make ~name:"A.caching" ~concern:"caching"
    ~formals:caching_formals (fun set ->
      let advices =
        List.map
          (fun cname ->
            Aspects.Advice.make ~name:("cache-" ^ cname) Aspects.Advice.Before
              (Aspects.Pointcut.execution cname "get*")
              [
                Code.Jstmt.S_comment
                  (Printf.sprintf "consult cache (capacity %d)"
                     (Transform.Params.get_int set "capacity"));
              ])
          (Transform.Params.get_names set "cached")
      in
      Aspects.Aspect.make ~advices ~name:"CachingAspect" ~concern:"caching" ())

let () =
  Concerns.Registry.reset ();
  (match
     Concerns.Registry.register
       { Concerns.Registry.concern =
           Concerns.Concern.make ~key:"caching" ~display:"Caching" ();
         gmt = caching_gmt;
         gac = caching_gac;
       }
   with
  | Ok () -> print_endline "registered user concern: caching"
  | Error diags -> failwith (String.concat "; " diags));

  (* ---- 2. composition: transactions then caching, one parameter set ---- *)
  let composite =
    match
      Transform.Compose.sequence ~name:"T.reliable-reads" ~concern:"caching"
        [ Concerns.Transactions.transformation; caching_gmt ]
    with
    | Ok gmt -> gmt
    | Error e -> failwith e
  in
  Printf.printf "composite %s merges %d formal parameter(s)\n"
    composite.Transform.Gmt.name
    (List.length composite.Transform.Gmt.formals);

  let m = Mof.Model.create ~name:"kv" in
  let root = Mof.Model.root m in
  let m, store = Mof.Builder.add_class m ~owner:root ~name:"Store" in
  let m, get = Mof.Builder.add_operation m ~owner:store ~name:"getValue" in
  let m = Mof.Builder.set_result m ~op:get ~typ:Mof.Kind.Dt_string in

  let cmt =
    Transform.Cmt.specialize_exn composite
      [
        ("transactional", v_names [ "Store" ]);
        ("cached", v_names [ "Store" ]);
        ("capacity", Transform.Params.V_int 64);
      ]
  in
  (match Transform.Engine.apply cmt m with
  | Ok { Transform.Engine.model = refined; diff } ->
      Printf.printf "composite applied: %s\n"
        (Transform.Trace.summary { Transform.Trace.cmt; diff });
      Printf.printf "Store stereotypes: %s\n"
        (match Mof.Query.find_class refined "Store" with
        | Some c -> String.concat ", " c.Mof.Element.stereotypes
        | None -> "?")
  | Error f ->
      failwith (Format.asprintf "%a" Transform.Engine.pp_failure f));

  (* ---- 3. a workflow derived from dependencies -------------------------- *)
  let wf =
    match
      Workflow.Derive.from_dependencies
        ~optional:[ "caching" ]
        [
          ("transactions", []);
          ("caching", [ "transactions" ]);
        ]
    with
    | Ok wf -> wf
    | Error e -> failwith e
  in
  let p = Workflow.State.start wf in
  Printf.printf "\nderived workflow:\n%s\n" (Workflow.Guidance.describe p);
  Concerns.Registry.reset ()
