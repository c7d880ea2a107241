(* Tests for the concern library: each built-in concern's transformation and
   generic aspect, plus the registry. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let v_names names =
  Transform.Params.V_list (List.map (fun n -> Transform.Params.V_ident n) names)

let apply_exn gmt assignments m =
  let cmt = Transform.Cmt.specialize_exn gmt assignments in
  match Transform.Engine.apply cmt m with
  | Ok outcome -> outcome.Transform.Engine.model
  | Error f ->
      Alcotest.fail (Format.asprintf "%a" Transform.Engine.pp_failure f)

(* A concern's concrete aspect, reached the way the pipeline reaches it: the
   assignments specialize the concern's transformation, and the generator
   instantiates the generic aspect with that transformation's parameter set. *)
let specialize (gac : Aspects.Generic.t) assignments =
  match Concerns.Registry.find_gmt gac.Aspects.Generic.concern with
  | None -> Alcotest.fail ("no transformation for " ^ gac.Aspects.Generic.concern)
  | Some gmt ->
      Result.map
        (fun cmt -> (Aspects.Generator.from_cmt gac ~seq:1 cmt).Aspects.Generator.aspect)
        (Transform.Cmt.specialize gmt assignments)

let advice_count (a : Aspects.Aspect.t) = List.length a.Aspects.Aspect.advices

let aspect_text aspect =
  Aspects.Printer.generated_to_string
    { Aspects.Generator.aspect; from_transformation = "T"; seq = 1 }

(* [reset] drops every registered entry, leaving the builtins. *)
let builtins () =
  Concerns.Registry.reset ();
  Concerns.Registry.all ()

let apply_fails gmt assignments m =
  let cmt = Transform.Cmt.specialize_exn gmt assignments in
  match Transform.Engine.apply cmt m with
  | Ok _ -> false
  | Error _ -> true

let ocl m src = Ocl.Eval.eval_string m Ocl.Env.empty src

let holds m src =
  match ocl m src with Ocl.Value.V_bool b -> b | _ -> false

(* ---- meta: every builtin's generic conditions typecheck ----------------- *)

let meta_tests =
  [
    Alcotest.test_case "all builtin conditions pass static validation" `Quick
      (fun () ->
        List.iter
          (fun (e : Concerns.Registry.entry) ->
            check (Alcotest.list cs)
              e.Concerns.Registry.gmt.Transform.Gmt.name []
              (Transform.Gmt.validate_conditions e.Concerns.Registry.gmt))
          (builtins ()));
    Alcotest.test_case "every builtin aspect shares its GMT's formals" `Quick
      (fun () ->
        List.iter
          (fun (e : Concerns.Registry.entry) ->
            let gmt_names =
              List.map
                (fun (d : Transform.Params.decl) -> d.Transform.Params.pname)
                e.Concerns.Registry.gmt.Transform.Gmt.formals
            in
            let gac_names =
              List.map
                (fun (d : Transform.Params.decl) -> d.Transform.Params.pname)
                e.Concerns.Registry.gac.Aspects.Generic.formals
            in
            check (Alcotest.list cs) e.Concerns.Registry.concern.Concerns.Concern.key
              gmt_names gac_names)
          (builtins ()));
    Alcotest.test_case "builtin concrete aspects validate cleanly" `Quick
      (fun () ->
        (* instantiate each aspect with plausible parameters and run the
           aspect sanity checks *)
        let instantiations =
          [
            ( Concerns.Distribution.generic_aspect,
              [ ("remote", v_names [ "Account" ]) ] );
            ( Concerns.Transactions.generic_aspect,
              [ ("transactional", v_names [ "Account" ]) ] );
            ( Concerns.Security.generic_aspect,
              [ ("secured", v_names [ "Account" ]) ] );
            ( Concerns.Concurrency.generic_aspect,
              [ ("guarded", v_names [ "Account" ]) ] );
            (Concerns.Logging.generic_aspect, []);
          ]
        in
        List.iter
          (fun (gac, assignments) ->
            match specialize gac assignments with
            | Ok aspect ->
                check (Alcotest.list cs) gac.Aspects.Generic.ga_name []
                  (Aspect_check.validate aspect)
            | Error _ -> Alcotest.fail gac.Aspects.Generic.ga_name)
          instantiations);
  ]

(* ---- distribution -------------------------------------------------------- *)

let distribution_tests =
  let gmt = Concerns.Distribution.transformation in
  [
    Alcotest.test_case "introduces interface, proxy, naming service" `Quick
      (fun () ->
        let m =
          apply_exn gmt [ ("remote", v_names [ "Account" ]) ] (Fixtures.banking ())
        in
        check cb "interface" true
          (holds m
             "Interface.allInstances()->exists(i | i.name = 'AccountRemote')");
        check cb "proxy" true
          (holds m
             "Class.allInstances()->exists(c | c.name = 'AccountProxy' and \
              c.hasStereotype('proxy'))");
        check cb "naming service" true
          (holds m "Class.allInstances()->exists(c | c.name = 'NamingService')");
        check cb "remote stereotype" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Account').hasStereotype('remote')"));
    Alcotest.test_case "copies the public operation signatures" `Quick (fun () ->
        let m =
          apply_exn gmt [ ("remote", v_names [ "Account" ]) ] (Fixtures.banking ())
        in
        check cb "withdraw on the interface" true
          (holds m
             "Interface.allInstances()->any(i | i.name = \
              'AccountRemote').operations->exists(o | o.name = 'withdraw' and \
              o.resultType = 'Boolean' and o.parameters->size() = 1)");
        check cb "proxy mirrors the ops" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'AccountProxy').operations->exists(o | o.name = 'deposit')"));
    Alcotest.test_case "proxy has a typed target attribute and dependency"
      `Quick (fun () ->
        let m =
          apply_exn gmt [ ("remote", v_names [ "Account" ]) ] (Fixtures.banking ())
        in
        check cb "target : Account" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'AccountProxy').attributes->exists(a | a.name = 'target' and \
              a.type = 'Account')");
        check cb "delegates dependency" true
          (holds m
             "Dependency.allInstances()->exists(d | \
              d.hasStereotype('delegates') and d.client.name = 'AccountProxy' \
              and d.supplier.name = 'Account')"));
    Alcotest.test_case "protocol and registry recorded as tags" `Quick (fun () ->
        let m =
          apply_exn gmt
            [
              ("remote", v_names [ "Account" ]);
              ("protocol", Transform.Params.V_string "corba");
              ("registry", Transform.Params.V_string "host:9999");
            ]
            (Fixtures.banking ())
        in
        check cb "protocol" true
          (holds m
             "Class.allInstances()->any(c | c.name = 'Account').tag('protocol') \
              = 'corba'");
        check cb "registry" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'NamingService').tag('registry') = 'host:9999'"));
    Alcotest.test_case "missing class fails the precondition" `Quick (fun () ->
        check cb "fails" true
          (apply_fails gmt [ ("remote", v_names [ "Ghost" ]) ] (Fixtures.banking ())));
    Alcotest.test_case "re-application is refused" `Quick (fun () ->
        let m =
          apply_exn gmt [ ("remote", v_names [ "Account" ]) ] (Fixtures.banking ())
        in
        check cb "fails" true (apply_fails gmt [ ("remote", v_names [ "Account" ]) ] m));
    Alcotest.test_case "aspect is specialized by the same parameters" `Quick
      (fun () ->
        match
          specialize Concerns.Distribution.generic_aspect
            [
              ("remote", v_names [ "Account"; "Teller" ]);
              ("registry", Transform.Params.V_string "r:1");
            ]
        with
        | Ok aspect ->
            check ci "one advice per class" 2 (advice_count aspect);
            check ci "one intertype per class" 2
              (List.length aspect.Aspects.Aspect.intertypes)
        | Error _ -> Alcotest.fail "specialization failed");
  ]

(* ---- transactions --------------------------------------------------------- *)

let transactions_tests =
  let gmt = Concerns.Transactions.transformation in
  [
    Alcotest.test_case "marks classes and adds the manager" `Quick (fun () ->
        let m =
          apply_exn gmt
            [ ("transactional", v_names [ "Account"; "Teller" ]) ]
            (Fixtures.banking ())
        in
        check cb "stereotypes" true
          (holds m
             "Class.allInstances()->select(c | \
              c.hasStereotype('transactional'))->size() = 2");
        check cb "manager" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'TransactionManager').operations->collect(o | \
              o.name)->includesAll(Sequence{'begin','commit','rollback'})");
        check cb "isolation default" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Account').tag('isolation') = 'serializable'"));
    Alcotest.test_case "adds a documenting constraint per class" `Quick
      (fun () ->
        let m =
          apply_exn gmt [ ("transactional", v_names [ "Account" ]) ]
            (Fixtures.banking ())
        in
        check cb "constraint" true
          (holds m
             "Constraint.allInstances()->exists(k | k.name = \
              'Account-transactional')");
        (* and the generated constraint itself holds on the model *)
        let k =
          Ocl.Constraint_.make ~name:"generated"
            "Class.allInstances()->forAll(c | c.name = 'Account' implies \
             c.hasStereotype('transactional'))"
        in
        check cb "generated holds" true (Ocl.Constraint_.check m k = Ocl.Constraint_.Holds));
    Alcotest.test_case "around advice begins, commits, rolls back" `Quick
      (fun () ->
        match
          specialize Concerns.Transactions.generic_aspect
            [
              ("transactional", v_names [ "Account" ]);
              ("isolation", Transform.Params.V_string "repeatable-read");
            ]
        with
        | Ok aspect ->
            let advice = List.hd aspect.Aspects.Aspect.advices in
            check cb "around" true (advice.Aspects.Advice.time = Aspects.Advice.Around);
            check cb "has proceed" true (Aspect_check.mentions_proceed advice);
            let text =
              aspect_text
                (Aspects.Aspect.make ~name:"Tx" ~concern:"transactions"
                   ~advices:[ advice ] ())
            in
            let contains needle =
              let nl = String.length needle and hl = String.length text in
              let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
              go 0
            in
            check cb "begin" true (contains "tx.begin(\"repeatable-read\"");
            check cb "rollback" true (contains "tx.rollback()")
        | Error _ -> Alcotest.fail "specialization failed");
    Alcotest.test_case "invalid isolation rejected" `Quick (fun () ->
        check cb "rejected" true
          (Result.is_error
             (Transform.Cmt.specialize gmt
                [
                  ("transactional", v_names [ "Account" ]);
                  ("isolation", Transform.Params.V_string "dirty-read");
                ])));
  ]

(* ---- security -------------------------------------------------------------- *)

let security_tests =
  let gmt = Concerns.Security.transformation in
  [
    Alcotest.test_case "marks classes, adds infrastructure and dependency"
      `Quick (fun () ->
        let m =
          apply_exn gmt
            [
              ("secured", v_names [ "Teller" ]);
              ( "roles",
                Transform.Params.V_list
                  [ Transform.Params.V_string "teller"; Transform.Params.V_string "boss" ] );
            ]
            (Fixtures.banking ())
        in
        check cb "stereotype" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Teller').hasStereotype('secured')");
        check cb "roles tag" true
          (holds m
             "Class.allInstances()->any(c | c.name = 'Teller').tag('roles') = \
              'teller,boss'");
        check cb "principal and controller" true
          (holds m
             "Class.allInstances()->exists(c | c.name = 'Principal') and \
              Class.allInstances()->exists(c | c.name = 'AccessController')");
        check cb "uses dependency" true
          (holds m
             "Dependency.allInstances()->exists(d | d.hasStereotype('uses') \
              and d.client.name = 'Teller')"));
    Alcotest.test_case "empty role list fails the precondition" `Quick (fun () ->
        check cb "fails" true
          (apply_fails gmt
             [
               ("secured", v_names [ "Teller" ]);
               ("roles", Transform.Params.V_list []);
             ]
             (Fixtures.banking ())));
    Alcotest.test_case "before advice checks roles and authentication" `Quick
      (fun () ->
        match
          specialize Concerns.Security.generic_aspect
            [
              ("secured", v_names [ "Teller" ]);
              ("authentication", Transform.Params.V_string "basic");
            ]
        with
        | Ok aspect ->
            let text = aspect_text aspect in
            let contains needle =
              let nl = String.length needle and hl = String.length text in
              let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
              go 0
            in
            check cb "authentication" true (contains "\"basic\"");
            check cb "roles default" true (contains "\"admin\"");
            check cb "before" true (contains "before()")
        | Error _ -> Alcotest.fail "specialization failed");
  ]

(* ---- concurrency / logging -------------------------------------------------- *)

let concurrency_tests =
  let gmt = Concerns.Concurrency.transformation in
  [
    Alcotest.test_case "marks classes with the policy" `Quick (fun () ->
        let m =
          apply_exn gmt
            [
              ("guarded", v_names [ "Account" ]);
              ("policy", Transform.Params.V_string "reader-writer");
            ]
            (Fixtures.banking ())
        in
        check cb "stereotype and tag" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Account').tag('policy') = 'reader-writer'");
        check cb "lock manager" true
          (holds m "Class.allInstances()->exists(c | c.name = 'LockManager')"));
    Alcotest.test_case "mutex weaves synchronized, rw weaves try/finally" `Quick
      (fun () ->
        let text policy =
          match
            specialize Concerns.Concurrency.generic_aspect
              [
                ("guarded", v_names [ "Account" ]);
                ("policy", Transform.Params.V_string policy);
              ]
          with
          | Ok aspect -> aspect_text aspect
          | Error _ -> Alcotest.fail "specialization failed"
        in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        check cb "mutex" true (contains (text "mutex") "synchronized (LockManager.of(this))");
        check cb "rw acquire" true (contains (text "reader-writer") ".acquire(\"reader-writer\")");
        check cb "rw release" true (contains (text "reader-writer") ".release()"));
  ]

let logging_tests =
  let gmt = Concerns.Logging.transformation in
  [
    Alcotest.test_case "adds the logger and marks exact-named targets" `Quick
      (fun () ->
        let m =
          apply_exn gmt
            [
              ( "targets",
                Transform.Params.V_list
                  [ Transform.Params.V_string "Account"; Transform.Params.V_string "No*" ] );
            ]
            (Fixtures.banking ())
        in
        check cb "logger" true
          (holds m "Class.allInstances()->exists(c | c.name = 'Logger')");
        check cb "exact target marked" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Account').hasStereotype('logged')"));
    Alcotest.test_case "defaults cover everything at info level" `Quick
      (fun () ->
        match specialize Concerns.Logging.generic_aspect [] with
        | Ok aspect ->
            check ci "enter+exit advice" 2 (advice_count aspect)
        | Error _ -> Alcotest.fail "specialization failed");
  ]

(* ---- persistence ----------------------------------------------------------- *)

let persistence_tests =
  let gmt = Concerns.Persistence.transformation in
  [
    Alcotest.test_case "marks classes, adds surrogate id and manager" `Quick
      (fun () ->
        let m =
          apply_exn gmt
            [
              ("persistent", v_names [ "Account" ]);
              ("store", Transform.Params.V_string "object-store");
            ]
            (Fixtures.banking ())
        in
        check cb "stereotype and store" true
          (holds m
             "Class.allInstances()->any(c | c.name = 'Account').tag('store') \
              = 'object-store'");
        check cb "surrogate id" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Account').attributes->exists(a | a.name = 'id' and \
              a.hasStereotype('generated'))");
        check cb "manager" true
          (holds m
             "Class.allInstances()->exists(c | c.name = 'PersistenceManager')"));
    Alcotest.test_case "an existing id attribute is kept, not duplicated"
      `Quick (fun () ->
        let m0 = Fixtures.banking () in
        let acct = Fixtures.class_id m0 "Account" in
        let m0, _ =
          Mof.Builder.add_attribute m0 ~cls:acct ~name:"id"
            ~typ:Mof.Kind.Dt_integer
        in
        let m = apply_exn gmt [ ("persistent", v_names [ "Account" ]) ] m0 in
        check cb "one id attribute" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Account').attributes->select(a | a.name = 'id')->size() = 1");
        check cb "original type kept" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'Account').attributes->any(a | a.name = 'id').type = 'Integer'"));
    Alcotest.test_case "re-application is refused" `Quick (fun () ->
        let m = apply_exn gmt [ ("persistent", v_names [ "Account" ]) ] (Fixtures.banking ()) in
        check cb "fails" true
          (apply_fails gmt [ ("persistent", v_names [ "Account" ]) ] m));
    Alcotest.test_case "aspect targets setters and getters" `Quick (fun () ->
        match
          specialize Concerns.Persistence.generic_aspect
            [ ("persistent", v_names [ "Account" ]) ]
        with
        | Ok aspect ->
            check ci "two advices" 2 (advice_count aspect);
            let text = aspect_text aspect in
            let contains needle =
              let nl = String.length needle and hl = String.length text in
              let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
              go 0
            in
            check cb "set pointcut" true (contains "execution(Account.set*)");
            check cb "get pointcut" true (contains "execution(Account.get*)");
            check cb "store parameter" true (contains "\"relational\"")
        | Error _ -> Alcotest.fail "specialization failed");
  ]

(* ---- messaging -------------------------------------------------------------- *)

let messaging_tests =
  let gmt = Concerns.Messaging.transformation in
  [
    Alcotest.test_case "split_target" `Quick (fun () ->
        (* a target splits at its dot into the advised execution; one
           without a dot advises nothing *)
        let pointcuts target =
          match
            specialize Concerns.Messaging.generic_aspect
              [ ("async", v_names [ target ]) ]
          with
          | Ok aspect ->
              List.map
                (fun (a : Aspects.Advice.t) ->
                  Aspects.Pointcut.to_string a.Aspects.Advice.pointcut)
                aspect.Aspects.Aspect.advices
          | Error _ -> Alcotest.fail "specialization failed"
        in
        check (Alcotest.list cs) "ok" [ "execution(Account.deposit)" ]
          (pointcuts "Account.deposit");
        check (Alcotest.list cs) "missing dot" [] (pointcuts "deposit"));
    Alcotest.test_case "marks operations and adds the queue" `Quick (fun () ->
        let m =
          apply_exn gmt
            [
              ("async", v_names [ "Account.deposit" ]);
              ("queue", Transform.Params.V_string "payments");
            ]
            (Fixtures.banking ())
        in
        check cb "operation marked" true
          (holds m
             "Operation.allInstances()->exists(o | o.name = 'deposit' and \
              o.hasStereotype('async') and o.tag('queue') = 'payments')");
        check cb "other operations untouched" true
          (holds m
             "Operation.allInstances()->select(o | \
              o.hasStereotype('async'))->size() = 1");
        check cb "queue class" true
          (holds m "Class.allInstances()->exists(c | c.name = 'MessageQueue')"));
    Alcotest.test_case "nonexistent operation fails the precondition" `Quick
      (fun () ->
        check cb "fails" true
          (apply_fails gmt
             [ ("async", v_names [ "Account.frobnicate" ]) ]
             (Fixtures.banking ())));
    Alcotest.test_case "aspect targets exactly the configured operation" `Quick
      (fun () ->
        match
          specialize Concerns.Messaging.generic_aspect
            [ ("async", v_names [ "Account.deposit" ]) ]
        with
        | Ok aspect ->
            check ci "one advice" 1 (advice_count aspect);
            let text = aspect_text aspect in
            let contains needle =
              let nl = String.length needle and hl = String.length text in
              let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
              go 0
            in
            check cb "pointcut" true (contains "execution(Account.deposit)");
            check cb "queue in body" true (contains "\"default-queue\"")
        | Error _ -> Alcotest.fail "specialization failed");
  ]

(* ---- registry ---------------------------------------------------------------- *)

let custom_entry key =
  let concern = Concerns.Concern.make ~key ~display:key () in
  let gmt =
    Transform.Gmt.make ~name:("T." ^ key) ~concern:key ~formals:[] (fun _ m -> m)
  in
  let gac =
    Aspects.Generic.make ~name:("A." ^ key) ~concern:key ~formals:[] (fun _ ->
        Aspects.Aspect.make ~name:key ~concern:key ())
  in
  { Concerns.Registry.concern; gmt; gac }

let registry_tests =
  [
    Alcotest.test_case "builtins are registered" `Quick (fun () ->
        Concerns.Registry.reset ();
        List.iter
          (fun key -> check cb key true (Concerns.Registry.find key <> None))
          [
            "distribution";
            "transactions";
            "security";
            "concurrency";
            "logging";
            "persistence";
            "messaging";
          ]);
    Alcotest.test_case "find_gmt and find_gac agree" `Quick (fun () ->
        check cb "gmt" true (Concerns.Registry.find_gmt "security" <> None);
        check cb "gac" true (Concerns.Registry.find_gac "security" <> None);
        check cb "unknown" true (Concerns.Registry.find "nope" = None));
    Alcotest.test_case "custom registration round trip" `Quick (fun () ->
        Concerns.Registry.reset ();
        (match Concerns.Registry.register (custom_entry "caching") with
        | Ok () -> ()
        | Error ds -> Alcotest.fail (String.concat "; " ds));
        check cb "registered" true (Concerns.Registry.find "caching" <> None);
        Concerns.Registry.reset ();
        check cb "reset drops it" true (Concerns.Registry.find "caching" = None));
    Alcotest.test_case "duplicate key rejected" `Quick (fun () ->
        Concerns.Registry.reset ();
        check cb "rejected" true
          (Result.is_error (Concerns.Registry.register (custom_entry "security"))));
    Alcotest.test_case "mismatched concern keys rejected" `Quick (fun () ->
        Concerns.Registry.reset ();
        let entry = custom_entry "fresh" in
        let bad =
          { entry with Concerns.Registry.gmt = (custom_entry "other").Concerns.Registry.gmt }
        in
        check cb "rejected" true (Result.is_error (Concerns.Registry.register bad)));
    Alcotest.test_case "mismatched formals rejected" `Quick (fun () ->
        Concerns.Registry.reset ();
        let entry = custom_entry "fresh2" in
        let gmt_with_param =
          Transform.Gmt.make ~name:"T.fresh2" ~concern:"fresh2"
            ~formals:[ Transform.Params.decl "p" Transform.Params.P_int ]
            (fun _ m -> m)
        in
        let bad = { entry with Concerns.Registry.gmt = gmt_with_param } in
        check cb "rejected" true (Result.is_error (Concerns.Registry.register bad)));
    Alcotest.test_case "broken generic conditions rejected" `Quick (fun () ->
        Concerns.Registry.reset ();
        let entry = custom_entry "fresh3" in
        let bad_gmt =
          Transform.Gmt.make ~name:"T.fresh3" ~concern:"fresh3" ~formals:[]
            ~preconditions:[ Ocl.Constraint_.make ~name:"oops" "1 +" ]
            (fun _ m -> m)
        in
        check cb "rejected" true
          (Result.is_error
             (Concerns.Registry.register { entry with Concerns.Registry.gmt = bad_gmt })));
  ]

(* ---- cross-concern composition ----------------------------------------------- *)

let composition_tests =
  [
    Alcotest.test_case "the Fig. 2 sequence composes" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m =
          apply_exn Concerns.Distribution.transformation
            [ ("remote", v_names [ "Account"; "Teller" ]) ]
            m
        in
        let m =
          apply_exn Concerns.Transactions.transformation
            [ ("transactional", v_names [ "Account" ]) ]
            m
        in
        let m =
          apply_exn Concerns.Security.transformation
            [ ("secured", v_names [ "Teller" ]) ]
            m
        in
        check cb "well-formed after all three" true (Mof.Wellformed.check m = []);
        check cb "all marks present" true
          (holds m
             "Class.allInstances()->exists(c | c.hasStereotype('remote')) and \
              Class.allInstances()->exists(c | \
              c.hasStereotype('transactional')) and \
              Class.allInstances()->exists(c | c.hasStereotype('secured'))"));
    Alcotest.test_case "infrastructure classes are shared, not duplicated"
      `Quick (fun () ->
        let m = Fixtures.banking () in
        let m =
          apply_exn Concerns.Security.transformation
            [ ("secured", v_names [ "Teller" ]) ]
            m
        in
        let m =
          apply_exn Concerns.Security.transformation
            [ ("secured", v_names [ "Account" ]) ]
            m
        in
        check cb "one controller" true
          (holds m
             "Class.allInstances()->select(c | c.name = \
              'AccessController')->size() = 1"));
    Alcotest.test_case "transforming a proxy class is possible downstream"
      `Quick (fun () ->
        (* concern spaces can stack: secure the generated proxy *)
        let m = Fixtures.banking () in
        let m =
          apply_exn Concerns.Distribution.transformation
            [ ("remote", v_names [ "Account" ]) ]
            m
        in
        let m =
          apply_exn Concerns.Security.transformation
            [ ("secured", v_names [ "AccountProxy" ]) ]
            m
        in
        check cb "proxy secured" true
          (holds m
             "Class.allInstances()->any(c | c.name = \
              'AccountProxy').hasStereotype('secured')"));
  ]

(* ---- properties --------------------------------------------------------------- *)

let property_tests =
  let apply_to gmt assignments m =
    let cmt = Transform.Cmt.specialize_exn gmt assignments in
    Transform.Engine.apply cmt m
  in
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make
        ~name:"distribution keeps random models well-formed" ~count:25
        Gen.model_gen (fun m ->
          match
            apply_to Concerns.Distribution.transformation
              [ ("remote", v_names [ "R0" ]) ]
              m
          with
          | Ok outcome -> Mof.Wellformed.check outcome.Transform.Engine.model = []
          | Error _ -> false);
      QCheck2.Test.make
        ~name:"transactions keeps random models well-formed" ~count:25
        Gen.model_gen (fun m ->
          match
            apply_to Concerns.Transactions.transformation
              [ ("transactional", v_names [ "R0" ]) ]
              m
          with
          | Ok outcome -> Mof.Wellformed.check outcome.Transform.Engine.model = []
          | Error _ -> false);
      QCheck2.Test.make
        ~name:"refined random models still round trip through XMI" ~count:25
        Gen.model_gen (fun m ->
          match
            apply_to Concerns.Security.transformation
              [ ("secured", v_names [ "R0" ]) ]
              m
          with
          | Ok outcome ->
              let refined = outcome.Transform.Engine.model in
              Mof.Model.equal refined
                (Xmi.Import.from_string (Xmi.Export.to_string refined))
          | Error _ -> false);
      QCheck2.Test.make
        ~name:"a concern's diff never removes elements" ~count:25 Gen.model_gen
        (fun m ->
          match
            apply_to Concerns.Concurrency.transformation
              [ ("guarded", v_names [ "R0" ]) ]
              m
          with
          | Ok outcome ->
              Mof.Id.Set.is_empty outcome.Transform.Engine.diff.Mof.Diff.removed
          | Error _ -> false);
    ]

let () =
  Alcotest.run "concerns"
    [
      ("meta", meta_tests);
      ("distribution", distribution_tests);
      ("transactions", transactions_tests);
      ("security", security_tests);
      ("concurrency", concurrency_tests);
      ("logging", logging_tests);
      ("persistence", persistence_tests);
      ("messaging", messaging_tests);
      ("registry", registry_tests);
      ("composition", composition_tests);
      ("properties", property_tests);
    ]
