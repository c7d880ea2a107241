(* Tests for the mof metamodel substrate. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let has_rule rule violations =
  List.exists (fun (v : Mof.Wellformed.violation) -> v.Mof.Wellformed.rule = rule) violations

let fresh () = Mof.Model.create ~name:"m"

let with_class () =
  let m = fresh () in
  let m, cls = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"C" in
  (m, cls)

let class_payload m id =
  match (Mof.Model.find_exn m id).Mof.Element.kind with
  | Mof.Kind.Class p -> p
  | _ -> Alcotest.fail "not a class"

(* ---- Id --------------------------------------------------------------- *)

let id_tests =
  [
    Alcotest.test_case "to_string/of_string round trip" `Quick (fun () ->
        let id = Mof.Id.of_int 42 in
        check cs "rendered" "e42" (Mof.Id.to_string id);
        match Mof.Id.of_string "e42" with
        | Some id' -> check cb "equal" true (Mof.Id.equal id id')
        | None -> Alcotest.fail "parse failed");
    Alcotest.test_case "of_string rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s -> check cb s false (Mof.Id.of_string s <> None))
          [ ""; "e"; "x1"; "e-1"; "e1x"; "42" ]);
    Alcotest.test_case "compare orders by ordinal" `Quick (fun () ->
        check cb "lt" true (Mof.Id.compare (Mof.Id.of_int 1) (Mof.Id.of_int 2) < 0);
        check ci "eq" 0 (Mof.Id.compare (Mof.Id.of_int 5) (Mof.Id.of_int 5)));
    Alcotest.test_case "sets deduplicate" `Quick (fun () ->
        let s =
          Mof.Id.Set.of_list [ Mof.Id.of_int 1; Mof.Id.of_int 1; Mof.Id.of_int 2 ]
        in
        check ci "cardinal" 2 (Mof.Id.Set.cardinal s));
  ]

(* ---- Kind ------------------------------------------------------------- *)

let kind_tests =
  [
    Alcotest.test_case "multiplicity rendering" `Quick (fun () ->
        check cs "one" "1" (Mof.Kind.mult_to_string Mof.Kind.mult_one);
        check cs "opt" "0..1" (Mof.Kind.mult_to_string { Mof.Kind.lower = 0; upper = Some 1 });
        check cs "many" "0..*" (Mof.Kind.mult_to_string Mof.Kind.mult_many);
        check cs "some" "1..*" (Mof.Kind.mult_to_string { Mof.Kind.lower = 1; upper = None });
        check cs "range" "2..5"
          (Mof.Kind.mult_to_string { Mof.Kind.lower = 2; upper = Some 5 }));
    Alcotest.test_case "multiplicity parsing" `Quick (fun () ->
        let round s =
          match Mof.Kind.mult_of_string s with
          | Some m -> Mof.Kind.mult_to_string m
          | None -> "<none>"
        in
        check cs "1" "1" (round "1");
        check cs "0..1" "0..1" (round "0..1");
        check cs "star" "0..*" (round "*");
        check cs "2..5" "2..5" (round "2..5");
        check cs "1..*" "1..*" (round "1..*"));
    Alcotest.test_case "multiplicity parsing rejects garbage" `Quick (fun () ->
        List.iter
          (fun s -> check cb s true (Mof.Kind.mult_of_string s = None))
          [ ""; "a"; "1.."; "..2"; "1.2" ]);
    Alcotest.test_case "multiplicity validity" `Quick (fun () ->
        check cb "one" true (Mof.Kind.mult_valid Mof.Kind.mult_one);
        check cb "negative lower" false
          (Mof.Kind.mult_valid { Mof.Kind.lower = -1; upper = None });
        check cb "upper below lower" false
          (Mof.Kind.mult_valid { Mof.Kind.lower = 3; upper = Some 2 }));
    Alcotest.test_case "visibility round trip" `Quick (fun () ->
        List.iter
          (fun v ->
            check cb
              (Mof.Kind.visibility_to_string v)
              true
              (Mof.Kind.visibility_of_string (Mof.Kind.visibility_to_string v)
              = Some v))
          [ Mof.Kind.Public; Mof.Kind.Private; Mof.Kind.Protected; Mof.Kind.Package_level ]);
    Alcotest.test_case "direction round trip" `Quick (fun () ->
        List.iter
          (fun d ->
            check cb
              (Mof.Kind.direction_to_string d)
              true
              (Mof.Kind.direction_of_string (Mof.Kind.direction_to_string d)
              = Some d))
          [ Mof.Kind.Dir_in; Mof.Kind.Dir_out; Mof.Kind.Dir_inout; Mof.Kind.Dir_return ]);
    Alcotest.test_case "aggregation round trip" `Quick (fun () ->
        List.iter
          (fun a ->
            check cb
              (Mof.Kind.aggregation_to_string a)
              true
              (Mof.Kind.aggregation_of_string (Mof.Kind.aggregation_to_string a)
              = Some a))
          [ Mof.Kind.Ag_none; Mof.Kind.Ag_shared; Mof.Kind.Ag_composite ]);
    Alcotest.test_case "datatype_refs finds nested references" `Quick (fun () ->
        let id = Mof.Id.of_int 7 in
        let param param_type = Mof.Kind.Parameter { param_type; direction = Mof.Kind.Dir_in } in
        check ci "nested" 1
          (List.length
             (Mof.Kind.refs (param (Mof.Kind.Dt_collection (Mof.Kind.Dt_ref id)))));
        check ci "scalar" 0 (List.length (Mof.Kind.refs (param Mof.Kind.Dt_string))));
    Alcotest.test_case "metaclass names are distinct" `Quick (fun () ->
        let names = Mof.Kind.all_names in
        check ci "count" 11 (List.length names);
        check ci "distinct" 11
          (List.length (List.sort_uniq String.compare names)));
  ]

(* ---- Element ---------------------------------------------------------- *)

let element_tests =
  let elt () =
    Mof.Element.make ~id:(Mof.Id.of_int 1) ~name:"E" ~owner:None
      (Mof.Kind.Package { owned = [] })
  in
  [
    Alcotest.test_case "stereotype add is idempotent" `Quick (fun () ->
        let e = Mof.Element.add_stereotype "s" (Mof.Element.add_stereotype "s" (elt ())) in
        check ci "one" 1 (List.length e.Mof.Element.stereotypes));
    Alcotest.test_case "stereotype remove" `Quick (fun () ->
        let e = Mof.Element.add_stereotype "s" (elt ()) in
        let e = Mof.Element.remove_stereotype "s" e in
        check cb "gone" false (Mof.Element.has_stereotype "s" e));
    Alcotest.test_case "set_tag replaces in place" `Quick (fun () ->
        let e = Mof.Element.set_tag "a" "1" (elt ()) in
        let e = Mof.Element.set_tag "b" "2" e in
        let e = Mof.Element.set_tag "a" "3" e in
        check cb "a updated" true (Mof.Element.tag "a" e = Some "3");
        (* order preserved: a still first *)
        check cs "first key" "a" (fst (List.hd e.Mof.Element.tags)));
    Alcotest.test_case "remove_tag" `Quick (fun () ->
        let e = Mof.Element.remove_tag "a" (Mof.Element.set_tag "a" "1" (elt ())) in
        check cb "gone" true (Mof.Element.tag "a" e = None));
    Alcotest.test_case "equal is structural" `Quick (fun () ->
        check cb "same" true (Mof.Element.equal (elt ()) (elt ()));
        check cb "renamed differs" false
          (Mof.Element.equal (elt ()) (Mof.Element.with_name "X" (elt ()))));
    Alcotest.test_case "metaclass" `Quick (fun () ->
        check cs "package" "Package" (Mof.Element.metaclass (elt ())));
  ]

(* ---- Model ------------------------------------------------------------ *)

let model_tests =
  [
    Alcotest.test_case "create makes a root package" `Quick (fun () ->
        let m = fresh () in
        check cs "name" "m" (Mof.Model.name m);
        check ci "size" 1 (Mof.Model.size m);
        check cb "root is package" true
          (match (Mof.Model.find_exn m (Mof.Model.root m)).Mof.Element.kind with
          | Mof.Kind.Package _ -> true
          | _ -> false));
    Alcotest.test_case "fresh ids are distinct" `Quick (fun () ->
        let m = fresh () in
        let m, a = Mof.Model.fresh_id m in
        let _, b = Mof.Model.fresh_id m in
        check cb "distinct" false (Mof.Id.equal a b));
    Alcotest.test_case "add rejects duplicate ids" `Quick (fun () ->
        let m = fresh () in
        let e =
          Mof.Element.make ~id:(Mof.Model.root m) ~name:"dup" ~owner:None
            (Mof.Kind.Package { owned = [] })
        in
        check cb "raises" true
          (try
             ignore (Mof.Model.add m e);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "update missing id raises Element_not_found" `Quick
      (fun () ->
        let m = fresh () in
        check cb "raises" true
          (try
             ignore (Mof.Model.update m (Mof.Id.of_int 99) Fun.id);
             false
           with Mof.Model.Element_not_found _ -> true));
    Alcotest.test_case "level tag" `Quick (fun () ->
        let m = Mof.Model.set_level_tag "PIM" (fresh ()) in
        check cb "tagged" true (Mof.Model.level_tag m = Some "PIM"));
    Alcotest.test_case "equal ignores the id counter" `Quick (fun () ->
        let m = fresh () in
        let m', _ = Mof.Model.fresh_id m in
        check cb "equal" true (Mof.Model.equal m m'));
    Alcotest.test_case "of_elements validates" `Quick (fun () ->
        let m, _ = with_class () in
        let elements = Mof.Model.elements m in
        (* valid reconstruction *)
        let m' = Mof.Model.of_elements ~root:(Mof.Model.root m) ~next:100 elements in
        check cb "round" true (Mof.Model.equal m m');
        (* next too small *)
        check cb "small next" true
          (try
             ignore (Mof.Model.of_elements ~root:(Mof.Model.root m) ~next:0 elements);
             false
           with Invalid_argument _ -> true);
        (* missing root *)
        check cb "missing root" true
          (try
             ignore
               (Mof.Model.of_elements ~root:(Mof.Id.of_int 77) ~next:100 elements);
             false
           with Invalid_argument _ -> true));
  ]

(* ---- Builder ---------------------------------------------------------- *)

let builder_tests =
  [
    Alcotest.test_case "class is linked into its package" `Quick (fun () ->
        let m, cls = with_class () in
        let owned = Mof.Query.owned_of m (Mof.Model.root m) in
        check cb "listed" true
          (List.exists (fun e -> Mof.Id.equal e.Mof.Element.id cls) owned);
        check cb "owner set" true
          ((Mof.Model.find_exn m cls).Mof.Element.owner = Some (Mof.Model.root m)));
    Alcotest.test_case "attribute on a package is rejected" `Quick (fun () ->
        let m = fresh () in
        check cb "raises" true
          (try
             ignore
               (Mof.Builder.add_attribute m ~cls:(Mof.Model.root m) ~name:"x"
                  ~typ:Mof.Kind.Dt_integer);
             false
           with Mof.Builder.Builder_error _ -> true));
    Alcotest.test_case "operation accepted on class and interface" `Quick
      (fun () ->
        let m, cls = with_class () in
        let m, iface = Mof.Builder.add_interface m ~owner:(Mof.Model.root m) ~name:"I" in
        let m, _ = Mof.Builder.add_operation m ~owner:cls ~name:"f" in
        let m, _ = Mof.Builder.add_operation m ~owner:iface ~name:"g" in
        check ci "class ops" 1 (List.length (Mof.Query.operations_of m cls));
        check ci "iface ops" 1 (List.length (Mof.Query.operations_of m iface)));
    Alcotest.test_case "set_result creates then replaces the return parameter"
      `Quick (fun () ->
        let m, cls = with_class () in
        let m, op = Mof.Builder.add_operation m ~owner:cls ~name:"f" in
        check cb "void initially" true (Mof.Query.result_of m op = Mof.Kind.Dt_void);
        let m = Mof.Builder.set_result m ~op ~typ:Mof.Kind.Dt_integer in
        check cb "integer" true (Mof.Query.result_of m op = Mof.Kind.Dt_integer);
        let m = Mof.Builder.set_result m ~op ~typ:Mof.Kind.Dt_string in
        check cb "replaced" true (Mof.Query.result_of m op = Mof.Kind.Dt_string);
        (* still a single return parameter *)
        let returns =
          List.filter
            (fun (p : Mof.Element.t) ->
              match p.Mof.Element.kind with
              | Mof.Kind.Parameter { direction = Mof.Kind.Dir_return; _ } -> true
              | _ -> false)
            (match (Mof.Model.find_exn m op).Mof.Element.kind with
            | Mof.Kind.Operation { params; _ } ->
                List.map (Mof.Model.find_exn m) params
            | _ -> [])
        in
        check ci "one return" 1 (List.length returns));
    Alcotest.test_case "generalization records the super" `Quick (fun () ->
        let m, child = with_class () in
        let m, parent = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"P" in
        let m, gen = Mof.Builder.add_generalization m ~child ~parent in
        check cb "super recorded" true
          (List.exists (Mof.Id.equal parent) (class_payload m child).Mof.Kind.supers);
        check cb "element exists" true (Mof.Model.mem m gen));
    Alcotest.test_case "generalization rejects non-classes" `Quick (fun () ->
        let m, cls = with_class () in
        let m, iface = Mof.Builder.add_interface m ~owner:(Mof.Model.root m) ~name:"I" in
        check cb "raises" true
          (try
             ignore (Mof.Builder.add_generalization m ~child:cls ~parent:iface);
             false
           with Mof.Builder.Builder_error _ -> true));
    Alcotest.test_case "realization links class to interface" `Quick (fun () ->
        let m, cls = with_class () in
        let m, iface = Mof.Builder.add_interface m ~owner:(Mof.Model.root m) ~name:"I" in
        let m = Mof.Builder.add_realization m ~cls ~iface in
        check cb "linked" true
          (List.exists (Mof.Id.equal iface) (class_payload m cls).Mof.Kind.realizes);
        (* idempotent *)
        let m = Mof.Builder.add_realization m ~cls ~iface in
        check ci "once" 1 (List.length (class_payload m cls).Mof.Kind.realizes));
    Alcotest.test_case "association requires two ends" `Quick (fun () ->
        let m, cls = with_class () in
        check cb "raises" true
          (try
             ignore
               (Mof.Builder.add_association m ~owner:(Mof.Model.root m) ~name:"a"
                  ~ends:
                    [
                      {
                        Mof.Kind.end_name = "x";
                        end_type = cls;
                        end_mult = Mof.Kind.mult_one;
                        end_navigable = true;
                        end_aggregation = Mof.Kind.Ag_none;
                      };
                    ]);
             false
           with Mof.Builder.Builder_error _ -> true));
    Alcotest.test_case "dependency carries its stereotype" `Quick (fun () ->
        let m, a = with_class () in
        let m, b = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"B" in
        let m, dep =
          Mof.Builder.add_dependency m ~owner:(Mof.Model.root m) ~client:a
            ~supplier:b ~stereotype:"uses"
        in
        check cb "stereotyped" true
          (Mof.Element.has_stereotype "uses" (Mof.Model.find_exn m dep)));
    Alcotest.test_case "delete_element removes the subtree and unlinks" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        let before = Mof.Model.size m in
        let attrs = List.length (Mof.Query.attributes_of m acct) in
        let m = Mof.Builder.delete_element m acct in
        check cb "class gone" true (not (Mof.Model.mem m acct));
        check cb "children gone" true (Mof.Model.size m < before - attrs);
        let bank =
          match Mof.Query.find_by_qualified_name m "bank" with
          | Some e -> e.Mof.Element.id
          | None -> Alcotest.fail "bank package missing"
        in
        check cb "unlinked" true
          (not
             (List.exists
                (fun e -> Mof.Id.equal e.Mof.Element.id acct)
                (Mof.Query.owned_of m bank))));
    Alcotest.test_case "enumeration creation and rendering" `Quick (fun () ->
        let m = fresh () in
        let m, enum =
          Mof.Builder.add_enumeration m ~owner:(Mof.Model.root m)
            ~name:"Currency" ~literals:[ "CHF"; "EUR"; "USD" ]
        in
        check cs "metaclass" "Enumeration"
          (Mof.Element.metaclass (Mof.Model.find_exn m enum));
        check cb "well-formed" true (Mof.Wellformed.check m = []);
        let text = Mof.Pp.model_to_string m in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
          go 0
        in
        check cb "rendered" true (contains "enum Currency {CHF, EUR, USD}"));
    Alcotest.test_case "duplicate enumeration literals detected" `Quick
      (fun () ->
        let m = fresh () in
        let m, _ =
          Mof.Builder.add_enumeration m ~owner:(Mof.Model.root m) ~name:"Bad"
            ~literals:[ "A"; "A" ]
        in
        check cb "violation" true
          (has_rule Mof.Wellformed.Duplicate_literal (Mof.Wellformed.check m)));
    Alcotest.test_case "rename" `Quick (fun () ->
        let m, cls = with_class () in
        let m = Mof.Builder.rename m cls "Renamed" in
        check cs "name" "Renamed" (Mof.Model.find_exn m cls).Mof.Element.name);
  ]

(* ---- Query ------------------------------------------------------------ *)

let query_tests =
  [
    Alcotest.test_case "classifier listings" `Quick (fun () ->
        let m = Fixtures.banking () in
        check ci "classes" 4 (List.length (Mof.Query.classes m));
        check ci "packages" 2 (List.length (Mof.Query.packages m));
        check ci "associations" 1 (List.length (Mof.Query.associations m));
        check ci "constraints" 1 (List.length (Mof.Query.constraints m)));
    Alcotest.test_case "parameters_of excludes the return parameter" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        let wd =
          List.find
            (fun (o : Mof.Element.t) -> o.Mof.Element.name = "withdraw")
            (Mof.Query.operations_of m acct)
        in
        check ci "params" 1
          (List.length (Mof.Query.parameters_of m wd.Mof.Element.id));
        check cb "result" true
          (Mof.Query.result_of m wd.Mof.Element.id = Mof.Kind.Dt_boolean));
    Alcotest.test_case "qualified names" `Quick (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        check cs "class" "bank.Account" (Mof.Query.qualified_name m acct);
        check cs "root" "banking" (Mof.Query.qualified_name m (Mof.Model.root m));
        match Mof.Query.find_by_qualified_name m "bank.Account.balance" with
        | Some e -> check cs "attr" "balance" e.Mof.Element.name
        | None -> Alcotest.fail "qualified lookup failed");
    Alcotest.test_case "dotted simple names lose to package joins" `Quick
      (fun () ->
        (* a root-level class literally named "pkg.Inner" prints the same
           qualified name as class Inner in package pkg; the structural
           (deeper) element must win regardless of creation order *)
        let build ~collider_first =
          let m = Mof.Model.create ~name:"m" in
          let root = Mof.Model.root m in
          let add_collider m = fst (Mof.Builder.add_class m ~owner:root ~name:"pkg.Inner") in
          let add_nested m =
            let m, pkg = Mof.Builder.add_package m ~owner:root ~name:"pkg" in
            let m, inner = Mof.Builder.add_class m ~owner:pkg ~name:"Inner" in
            (m, inner)
          in
          if collider_first then
            let m = add_collider m in
            add_nested m
          else
            let m, inner = add_nested m in
            (add_collider m, inner)
        in
        List.iter
          (fun collider_first ->
            let m, inner = build ~collider_first in
            match Mof.Query.find_by_qualified_name m "pkg.Inner" with
            | Some e ->
                check cb
                  (Printf.sprintf "nested wins (collider_first=%b)"
                     collider_first)
                  true
                  (Mof.Id.equal e.Mof.Element.id inner)
            | None -> Alcotest.fail "qualified lookup failed")
          [ true; false ]);
    Alcotest.test_case "supers_transitive walks the chain" `Quick (fun () ->
        let m = fresh () in
        let root = Mof.Model.root m in
        let m, a = Mof.Builder.add_class m ~owner:root ~name:"A" in
        let m, b = Mof.Builder.add_class m ~owner:root ~name:"B" in
        let m, c = Mof.Builder.add_class m ~owner:root ~name:"C" in
        let m, _ = Mof.Builder.add_generalization m ~child:a ~parent:b in
        let m, _ = Mof.Builder.add_generalization m ~child:b ~parent:c in
        let closure = Mof.Query.supers_transitive m a in
        check ci "two supers" 2 (List.length closure);
        check cb "nearest first" true (Mof.Id.equal (List.hd closure) b));
    Alcotest.test_case "supers_transitive tolerates cycles" `Quick (fun () ->
        let m = fresh () in
        let root = Mof.Model.root m in
        let m, a = Mof.Builder.add_class m ~owner:root ~name:"A" in
        let m, b = Mof.Builder.add_class m ~owner:root ~name:"B" in
        let m, _ = Mof.Builder.add_generalization m ~child:a ~parent:b in
        let m, _ = Mof.Builder.add_generalization m ~child:b ~parent:a in
        let closure = Mof.Query.supers_transitive m a in
        (* terminates, contains both a and b exactly once overall *)
        check cb "terminates" true (List.length closure <= 2));
    Alcotest.test_case "realizers_of" `Quick (fun () ->
        let m, cls = with_class () in
        let m, iface = Mof.Builder.add_interface m ~owner:(Mof.Model.root m) ~name:"I" in
        let m = Mof.Builder.add_realization m ~cls ~iface in
        check ci "one realizer" 1 (List.length (Mof.Query.realizers_of m iface)));
    Alcotest.test_case "containing_class finds the enclosing class" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        let dep =
          List.find
            (fun (o : Mof.Element.t) -> o.Mof.Element.name = "deposit")
            (Mof.Query.operations_of m acct)
        in
        let param = List.hd (Mof.Query.parameters_of m dep.Mof.Element.id) in
        check cb "param's class" true
          (Mof.Query.containing_class m param.Mof.Element.id = Some acct));
    Alcotest.test_case "public_operations_of filters visibility" `Quick
      (fun () ->
        let m, cls = with_class () in
        let m, _ =
          Mof.Builder.add_operation m ~owner:cls ~name:"pub"
            ~visibility:Mof.Kind.Public
        in
        let m, _ =
          Mof.Builder.add_operation m ~owner:cls ~name:"priv"
            ~visibility:Mof.Kind.Private
        in
        check ci "public only" 1
          (List.length (Mof.Query.public_operations_of m cls)));
  ]

(* ---- Wellformed ------------------------------------------------------- *)

let wellformed_tests =
  [
    Alcotest.test_case "fixture is well-formed" `Quick (fun () ->
        check cb "clean" true (Mof.Wellformed.check (Fixtures.banking ()) = []));
    Alcotest.test_case "dangling reference detected" `Quick (fun () ->
        let m, cls = with_class () in
        let m, _ =
          Mof.Builder.add_attribute m ~cls ~name:"x"
            ~typ:(Mof.Kind.Dt_ref (Mof.Id.of_int 999))
        in
        check cb "violation" true
          (has_rule Mof.Wellformed.Dangling_reference (Mof.Wellformed.check m)));
    Alcotest.test_case "owner mismatch detected" `Quick (fun () ->
        let m, cls = with_class () in
        (* forge an element whose owner does not list it *)
        let m, orphan_id = Mof.Model.fresh_id m in
        let orphan =
          Mof.Element.make ~id:orphan_id ~name:"orphan" ~owner:(Some cls)
            (Mof.Kind.Attribute
               {
                 attr_type = Mof.Kind.Dt_integer;
                 attr_visibility = Mof.Kind.Private;
                 attr_mult = Mof.Kind.mult_one;
                 is_derived = false;
                 is_static = false;
                 initial_value = None;
               })
        in
        let m = Mof.Model.add m orphan in
        check cb "violation" true
          (has_rule Mof.Wellformed.Owner_mismatch (Mof.Wellformed.check m)));
    Alcotest.test_case "duplicate sibling names detected" `Quick (fun () ->
        let m, cls = with_class () in
        let m, _ = Mof.Builder.add_attribute m ~cls ~name:"x" ~typ:Mof.Kind.Dt_integer in
        let m, _ = Mof.Builder.add_attribute m ~cls ~name:"x" ~typ:Mof.Kind.Dt_string in
        check cb "violation" true
          (has_rule Mof.Wellformed.Duplicate_name (Mof.Wellformed.check m)));
    Alcotest.test_case "inheritance cycle detected" `Quick (fun () ->
        let m, a = with_class () in
        let m, b = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"B" in
        let m, _ = Mof.Builder.add_generalization m ~child:a ~parent:b in
        let m, _ = Mof.Builder.add_generalization m ~child:b ~parent:a in
        check cb "violation" true
          (has_rule Mof.Wellformed.Inheritance_cycle (Mof.Wellformed.check m)));
    Alcotest.test_case "invalid multiplicity detected" `Quick (fun () ->
        let m, cls = with_class () in
        let m, _ =
          Mof.Builder.add_attribute m ~cls ~name:"x" ~typ:Mof.Kind.Dt_integer
            ~mult:{ Mof.Kind.lower = 5; upper = Some 2 }
        in
        check cb "violation" true
          (has_rule Mof.Wellformed.Invalid_multiplicity (Mof.Wellformed.check m)));
    Alcotest.test_case "abstract operation in concrete class detected" `Quick
      (fun () ->
        let m, cls = with_class () in
        let m, _ =
          Mof.Builder.add_operation m ~owner:cls ~name:"f" ~is_abstract:true
        in
        check cb "violation" true
          (has_rule Mof.Wellformed.Abstract_leaf (Mof.Wellformed.check m));
        (* the same operation in an abstract class is fine *)
        let m2 = fresh () in
        let m2, abs =
          Mof.Builder.add_class ~is_abstract:true m2 ~owner:(Mof.Model.root m2)
            ~name:"A"
        in
        let m2, _ =
          Mof.Builder.add_operation m2 ~owner:abs ~name:"f" ~is_abstract:true
        in
        check cb "abstract ok" false
          (has_rule Mof.Wellformed.Abstract_leaf (Mof.Wellformed.check m2)));
    Alcotest.test_case "empty name detected" `Quick (fun () ->
        let m = fresh () in
        let m, _ = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"" in
        check cb "violation" true
          (has_rule Mof.Wellformed.Empty_name (Mof.Wellformed.check m)));
    Alcotest.test_case "rule names are stable" `Quick (fun () ->
        let v =
          {
            Mof.Wellformed.subject = Mof.Id.of_int 1;
            rule = Mof.Wellformed.Dangling_reference;
            message = "m";
          }
        in
        check cb "dangling" true
          (String.starts_with ~prefix:"[dangling-reference] "
             (Format.asprintf "%a" Mof.Wellformed.pp_violation v)));
  ]

(* ---- Diff ------------------------------------------------------------- *)

let diff_tests =
  [
    Alcotest.test_case "identical models diff empty" `Quick (fun () ->
        let m = Fixtures.banking () in
        check cb "empty" true
          (Mof.Id.Set.is_empty (Mof.Diff.touched (Mof.Diff.compute ~old_model:m ~new_model:m))));
    Alcotest.test_case "classification" `Quick (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        let m2, added = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"New" in
        let m2 = Mof.Builder.add_stereotype m2 acct "touched" in
        let d = Mof.Diff.compute ~old_model:m ~new_model:m2 in
        check cb "added" true (Mof.Id.Set.mem added d.Mof.Diff.added);
        check cb "modified" true (Mof.Id.Set.mem acct d.Mof.Diff.modified);
        (* root is modified too: its owned list changed *)
        check cb "root modified" true
          (Mof.Id.Set.mem (Mof.Model.root m) d.Mof.Diff.modified);
        check ci "removed" 0 (Mof.Id.Set.cardinal d.Mof.Diff.removed));
    Alcotest.test_case "removal detected" `Quick (fun () ->
        let m = Fixtures.banking () in
        let cust = Fixtures.class_id m "Customer" in
        let m2 = Mof.Builder.delete_element m cust in
        let d = Mof.Diff.compute ~old_model:m ~new_model:m2 in
        check cb "removed" true (Mof.Id.Set.mem cust d.Mof.Diff.removed));
    Alcotest.test_case "pp summary" `Quick (fun () ->
        let d = Mof.Diff.empty in
        check cs "zeroes" "+0 -0 ~0" (Format.asprintf "%a" Mof.Diff.pp d));
  ]

(* ---- Store (indexes + journal) ---------------------------------------- *)

let forged_attr ~id ~name ~owner ~target =
  Mof.Element.make ~id ~name ~owner
    (Mof.Kind.Attribute
       {
         attr_type = Mof.Kind.Dt_ref target;
         attr_visibility = Mof.Kind.Private;
         attr_mult = Mof.Kind.mult_one;
         is_derived = false;
         is_static = false;
         initial_value = None;
       })

let diff_equal (a : Mof.Diff.t) (b : Mof.Diff.t) =
  Mof.Id.Set.equal a.Mof.Diff.added b.Mof.Diff.added
  && Mof.Id.Set.equal a.Mof.Diff.removed b.Mof.Diff.removed
  && Mof.Id.Set.equal a.Mof.Diff.modified b.Mof.Diff.modified

let store_tests =
  [
    Alcotest.test_case "kind and name indexes follow add/update/remove" `Quick
      (fun () ->
        let m, cls = with_class () in
        check ci "one class" 1 (Mof.Id.Set.cardinal (Mof.Model.by_kind m "Class"));
        check cb "named C" true (Mof.Id.Set.mem cls (Mof.Model.by_name m "C"));
        let m = Mof.Model.update m cls (Mof.Element.with_name "D") in
        check cb "old name bucket dropped" true
          (Mof.Id.Set.is_empty (Mof.Model.by_name m "C"));
        check cb "new name bucket gained" true
          (Mof.Id.Set.mem cls (Mof.Model.by_name m "D"));
        let m = Mof.Model.remove m cls in
        check cb "kind bucket dropped" true
          (Mof.Id.Set.is_empty (Mof.Model.by_kind m "Class")));
    Alcotest.test_case "owned_by mirrors the owner field" `Quick (fun () ->
        let m, cls = with_class () in
        check cb "listed" true
          (Mof.Id.Set.mem cls (Mof.Model.owned_by m (Mof.Model.root m)));
        let m = Mof.Builder.delete_element m cls in
        check cb "gone" true
          (not (Mof.Id.Set.mem cls (Mof.Model.owned_by m (Mof.Model.root m)))));
    Alcotest.test_case "referrers tracks unbound targets" `Quick (fun () ->
        let m, cls = with_class () in
        let ghost = Mof.Id.of_int 999 in
        let m, aid = Mof.Model.fresh_id m in
        let m =
          Mof.Model.add m
            (forged_attr ~id:aid ~name:"x" ~owner:(Some cls) ~target:ghost)
        in
        check cb "indexed" true (Mof.Id.Set.mem aid (Mof.Model.referrers m ghost));
        let m = Mof.Model.remove m aid in
        check cb "dropped" true
          (Mof.Id.Set.is_empty (Mof.Model.referrers m ghost)));
    Alcotest.test_case "touched_since replays the journal" `Quick (fun () ->
        let m, cls = with_class () in
        let w = Mof.Model.watermark m in
        let m2 = Mof.Builder.add_stereotype m cls "s" in
        (match Mof.Model.touched_since m2 w with
        | Some s -> check cb "cls touched" true (Mof.Id.Set.mem cls s)
        | None -> Alcotest.fail "descendant not recognized");
        match Mof.Model.touched_since m w with
        | Some s -> check ci "self empty" 0 (Mof.Id.Set.cardinal s)
        | None -> Alcotest.fail "self not recognized");
    Alcotest.test_case "touched_since refuses foreign lineages" `Quick
      (fun () ->
        let m, _ = with_class () in
        let other =
          Mof.Model.of_elements ~root:(Mof.Model.root m) ~next:100
            (Mof.Model.elements m)
        in
        check cb "unrelated" true
          (Mof.Model.touched_since other (Mof.Model.watermark m) = None);
        let left = Mof.Builder.add_stereotype m (Mof.Model.root m) "l" in
        let right = Mof.Builder.add_stereotype m (Mof.Model.root m) "r" in
        check cb "divergent branches" true
          (Mof.Model.touched_since left (Mof.Model.watermark right) = None));
    Alcotest.test_case "next is the serialized counter" `Quick (fun () ->
        let m, _ = with_class () in
        let m' =
          Mof.Model.of_elements ~root:(Mof.Model.root m) ~next:100
            (Mof.Model.elements m)
        in
        check ci "restored" 100 (Mof.Model.next m');
        let m'', id = Mof.Model.fresh_id m' in
        check ci "fresh uses it" 100 (Mof.Id.to_int id);
        check ci "bumped" 101 (Mof.Model.next m''));
    Alcotest.test_case "diff falls back to scanning foreign lineages" `Quick
      (fun () ->
        let a = Fixtures.banking () in
        let b =
          Mof.Model.of_elements ~root:(Mof.Model.root a) ~next:(Mof.Model.next a)
            (Mof.Model.elements a)
        in
        let b, _ = Mof.Builder.add_class b ~owner:(Mof.Model.root b) ~name:"New" in
        check cb "equal" true
          (diff_equal
             (Mof.Diff.compute ~old_model:a ~new_model:b)
             (Mof.Diff.compute_scan ~old_model:a ~new_model:b)));
    Alcotest.test_case "check_touched of nothing reports nothing" `Quick
      (fun () ->
        check ci "none" 0
          (List.length
             (Mof.Wellformed.check_touched (Fixtures.banking ())
                ~touched:Mof.Id.Set.empty)));
    Alcotest.test_case "scoped recheck catches a sibling duplicate" `Quick
      (fun () ->
        (* renaming touches only the renamed class, yet the duplicate-name
           verdict is decided by the untouched owner: the scope must widen
           through the referrers index to find it *)
        let m, a = with_class () in
        let m, _ = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"B" in
        let m2 = Mof.Builder.rename m a "B" in
        let touched =
          Mof.Diff.touched (Mof.Diff.compute ~old_model:m ~new_model:m2)
        in
        let scoped = Mof.Wellformed.check_touched m2 ~touched in
        check cb "dup seen" true (has_rule Mof.Wellformed.Duplicate_name scoped);
        check cb "same as full" true (Mof.Wellformed.check m2 = scoped));
  ]

(* ---- Pp --------------------------------------------------------------- *)

let pp_tests =
  [
    Alcotest.test_case "model rendering mentions the fixture" `Quick (fun () ->
        let text = Mof.Pp.model_to_string (Fixtures.banking ()) in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun needle -> check cb needle true (contains needle))
          [
            "package banking";
            "class Account";
            "class SavingsAccount extends Account";
            "-balance : Real [1]";
            "+withdraw(in amount : Real) : Boolean";
            "association holds";
            "constraint positive-balance";
          ]);
    Alcotest.test_case "datatype rendering resolves references" `Quick (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        check cs "ref" "Account"
          (Format.asprintf "%a" (Mof.Pp.datatype m) (Mof.Kind.Dt_ref acct));
        check cs "collection" "Set(Integer)"
          (Format.asprintf "%a" (Mof.Pp.datatype m)
             (Mof.Kind.Dt_collection Mof.Kind.Dt_integer)));
  ]

(* ---- randomized store consistency ------------------------------------- *)

(* Random mutation sequences over the full store vocabulary, replayed
   against scan-based reference implementations of every index and query.
   The op interpreters keep owner chains intact (qualified names must stay
   total): raw [Model.remove] only ever hits forged leaf attributes, which
   no containment list holds; a raw owner move only moves those, and a
   structural delete, which goes through [Builder.delete_element], takes
   along the forged leaves it leaves without an owner. Raw [Model.update]s
   change every index key: name, stereotypes, tags, owner, and the refs of
   a retyped attribute. *)

let op_names = [| "A"; "B"; "C"; "Acct"; "We.ird"; "x" |]
let op_stereos = [| "hot"; "cold"; "entity" |]

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 50)
      (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))

let apply_store_op (m, forged) (sel, a, b) =
  let ids = List.map (fun (e : Mof.Element.t) -> e.Mof.Element.id) (Mof.Model.elements m) in
  let pick k = List.nth ids (k mod List.length ids) in
  let name k = op_names.(k mod Array.length op_names) in
  match sel mod 11 with
  | 0 ->
      (fst (Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:(name a)), forged)
  | 1 -> (
      match Mof.Query.classes m with
      | [] -> (m, forged)
      | cs ->
          let c = (List.nth cs (a mod List.length cs)).Mof.Element.id in
          ( fst (Mof.Builder.add_attribute m ~cls:c ~name:(name b) ~typ:Mof.Kind.Dt_integer),
            forged ))
  | 2 ->
      ( Mof.Builder.add_stereotype m (pick a) op_stereos.(b mod Array.length op_stereos),
        forged )
  | 3 -> (Mof.Model.update m (pick a) (Mof.Element.with_name (name b)), forged)
  | 4 ->
      (* forged leaf: raw add, owner root, datatype ref to a possibly
         unbound id — exercises the referrers index on dangling targets *)
      let m, id = Mof.Model.fresh_id m in
      let m =
        Mof.Model.add m
          (forged_attr ~id ~name:(name b) ~owner:(Some (Mof.Model.root m))
             ~target:(Mof.Id.of_int (b mod 60)))
      in
      (m, id :: forged)
  | 5 -> (
      match forged with
      | [] -> (m, forged)
      | f :: rest -> (Mof.Model.remove m f, rest))
  | 6 -> (
      match List.filter (fun i -> not (Mof.Id.equal i (Mof.Model.root m))) ids with
      | [] -> (m, forged)
      | nr ->
          let m = Mof.Builder.delete_element m (List.nth nr (a mod List.length nr)) in
          (* a forged leaf moved under the deleted subtree goes with it *)
          let orphaned f =
            match (Mof.Model.find_exn m f).Mof.Element.owner with
            | Some o -> not (Mof.Model.mem m o)
            | None -> false
          in
          let m =
            List.fold_left
              (fun m f ->
                if Mof.Model.mem m f && orphaned f then Mof.Model.remove m f else m)
              m forged
          in
          (m, List.filter (Mof.Model.mem m) forged))
  | 7 ->
      (Mof.Model.update m (pick a) (Mof.Element.set_tag "k" (string_of_int (b mod 5))), forged)
  | 9 -> (
      (* raw owner move of a forged leaf (no containment list holds it):
         to no owner, to the root, or under any package or class *)
      match forged with
      | [] -> (m, forged)
      | _ ->
          let f = List.nth forged (a mod List.length forged) in
          let owners =
            None
            :: List.map
                 (fun (e : Mof.Element.t) -> Some e.Mof.Element.id)
                 (Mof.Query.packages m @ Mof.Query.classes m)
          in
          let owner = List.nth owners (b mod List.length owners) in
          (Mof.Model.update m f (fun e -> { e with Mof.Element.owner }), forged))
  | 10 -> (
      (* raw retype of any attribute to a reference to a random, possibly
         unbound, id *)
      match Mof.Id.Set.elements (Mof.Model.by_kind m "Attribute") with
      | [] -> (m, forged)
      | attrs ->
          let target = Mof.Id.of_int (b mod 60) in
          ( Mof.Model.update m (List.nth attrs (a mod List.length attrs)) (fun e ->
                match e.Mof.Element.kind with
                | Mof.Kind.Attribute at ->
                    Mof.Element.with_kind
                      (Mof.Kind.Attribute { at with attr_type = Mof.Kind.Dt_ref target })
                      e
                | _ -> e),
            forged ))
  | _ -> (
      match Mof.Query.classes m with
      | _ :: _ :: _ as cs ->
          let child = (List.nth cs (a mod List.length cs)).Mof.Element.id in
          let parent = (List.nth cs (b mod List.length cs)).Mof.Element.id in
          if Mof.Id.equal child parent then (m, forged)
          else (fst (Mof.Builder.add_generalization m ~child ~parent), forged)
      | _ -> (m, forged))

let scan_ids m p =
  List.filter_map
    (fun (e : Mof.Element.t) -> if p e then Some e.Mof.Element.id else None)
    (Mof.Model.elements m)

let indexes_agree m =
  let elements = Mof.Model.elements m in
  let eq_ids set ids = Mof.Id.Set.elements set = ids in
  let id_probes =
    Mof.Id.Set.elements
      (Mof.Id.Set.of_list
         ((Mof.Id.of_int 999
          :: List.map (fun (e : Mof.Element.t) -> e.Mof.Element.id) elements)
         @ List.concat_map
             (fun (e : Mof.Element.t) -> Mof.Kind.refs e.Mof.Element.kind)
             elements))
  in
  List.for_all
    (fun k ->
      eq_ids (Mof.Model.by_kind m k)
        (scan_ids m (fun e -> Mof.Element.metaclass e = k)))
    Mof.Kind.all_names
  && List.for_all
       (fun n ->
         eq_ids (Mof.Model.by_name m n)
           (scan_ids m (fun e -> e.Mof.Element.name = n)))
       ("zz-missing"
       :: List.map (fun (e : Mof.Element.t) -> e.Mof.Element.name) elements)
  && List.for_all
       (fun t ->
         eq_ids (Mof.Model.owned_by m t)
           (scan_ids m (fun e -> e.Mof.Element.owner = Some t))
         && eq_ids (Mof.Model.referrers m t)
              (scan_ids m (fun e ->
                   List.exists (Mof.Id.equal t) (Mof.Kind.refs e.Mof.Element.kind))))
       id_probes

(* Every id absent from [touched_since] must be bound identically in both
   models: the journal may over-report (touch-and-revert) but never miss a
   difference. *)
let journal_complete base final =
  match Mof.Model.touched_since final (Mof.Model.watermark base) with
  | None -> false
  | Some touched ->
      let covered a b =
        Mof.Model.fold
          (fun e ok ->
            ok
            && (Mof.Id.Set.mem e.Mof.Element.id touched
               ||
               match Mof.Model.find b e.Mof.Element.id with
               | Some e' -> Mof.Element.equal e e'
               | None -> false))
          a true
      in
      covered final base && covered base final

let filter p m = List.filter p (Mof.Model.elements m)

let queries_agree m =
  let eq_elts = List.equal Mof.Element.equal in
  let eq_opt = Option.equal Mof.Element.equal in
  let elements = Mof.Model.elements m in
  let names =
    "zz-missing"
    :: List.map (fun (e : Mof.Element.t) -> e.Mof.Element.name) elements
  in
  List.for_all
    (fun (k, query) ->
      eq_elts (query m) (filter (fun e -> Mof.Element.metaclass e = k) m))
    [
      ("Class", Mof.Query.classes);
      ("Interface", Mof.Query.interfaces);
      ("Package", Mof.Query.packages);
      ("Association", Mof.Query.associations);
      ("Constraint", Mof.Query.constraints);
      ("Enumeration", Mof.Query.enumerations);
    ]
  && List.for_all
       (fun n ->
         eq_opt (Mof.Query.find_class m n)
              (List.find_opt
                 (fun (e : Mof.Element.t) -> e.Mof.Element.name = n)
                 (filter (fun e -> Mof.Element.metaclass e = "Class") m)))
       names
  && List.for_all
       (fun q ->
         (* among colliding matches (dotted simple names, a root-level
            element named like the renamed root, ...) the documented rule
            is: deepest owner chain wins, lowest id breaks ties *)
         let depth (e : Mof.Element.t) =
           List.length (Mof.Query.owner_chain m e.Mof.Element.id)
         in
         let expected =
           List.fold_left
             (fun best (e : Mof.Element.t) ->
               if Mof.Query.qualified_name m e.Mof.Element.id <> q then best
               else
                 match best with
                 | Some b when depth b >= depth e -> best
                 | _ -> Some e)
             None elements
         in
         eq_opt (Mof.Query.find_by_qualified_name m q) expected)
       ("no.such.thing"
       :: List.map
            (fun (e : Mof.Element.t) -> Mof.Query.qualified_name m e.Mof.Element.id)
            elements)

(* Op interpreter for the scoped-wellformedness property: builder-level
   mutations seeded with every violation family, while never deleting a
   class (a dangling super would crash [supers_transitive] in the full
   check too — deletion of classifiers is a builder-level concern). *)
let apply_wf_op m (sel, a, b) =
  let ids = List.map (fun (e : Mof.Element.t) -> e.Mof.Element.id) (Mof.Model.elements m) in
  let pick k = List.nth ids (k mod List.length ids) in
  let name k = op_names.(k mod Array.length op_names) in
  try
    match sel mod 8 with
    | 0 -> fst (Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:(name a))
    | 1 -> (
        match Mof.Query.classes m with
        | [] -> m
        | cs ->
            let c = (List.nth cs (a mod List.length cs)).Mof.Element.id in
            let typ =
              if b mod 4 = 0 then Mof.Kind.Dt_ref (Mof.Id.of_int 998)
              else Mof.Kind.Dt_integer
            in
            let mult =
              if b mod 5 = 0 then { Mof.Kind.lower = 3; upper = Some 1 }
              else Mof.Kind.mult_one
            in
            let nm = if b mod 7 = 0 then "" else name b in
            fst (Mof.Builder.add_attribute m ~cls:c ~name:nm ~typ ~mult))
    | 2 -> (
        match Mof.Query.classes m with
        | [] -> m
        | cs ->
            let c = (List.nth cs (a mod List.length cs)).Mof.Element.id in
            fst
              (Mof.Builder.add_operation m ~owner:c ~name:(name b)
                 ~is_abstract:(b mod 3 = 0)))
    | 3 -> (
        match Mof.Query.classes m with
        | _ :: _ :: _ as cs ->
            let child = (List.nth cs (a mod List.length cs)).Mof.Element.id in
            let parent = (List.nth cs (b mod List.length cs)).Mof.Element.id in
            if Mof.Id.equal child parent then m
            else fst (Mof.Builder.add_generalization m ~child ~parent)
        | _ -> m)
    | 4 -> (
        let leaves =
          filter
            (fun e ->
              (match e.Mof.Element.kind with
              | Mof.Kind.Attribute _ | Mof.Kind.Operation _ | Mof.Kind.Parameter _ -> true
              | _ -> false)
              (* orphans forged under a since-deleted owner cannot be
                 unlinked; they stay as owner-mismatch violations *)
              && match e.Mof.Element.owner with
                 | Some o -> Mof.Model.mem m o
                 | None -> false)
            m
        in
        match leaves with
        | [] -> m
        | _ ->
            Mof.Builder.delete_element m
              (List.nth leaves (a mod List.length leaves)).Mof.Element.id)
    | 5 -> Mof.Builder.rename m (pick a) (if b mod 6 = 0 then "" else name b)
    | 6 -> Mof.Builder.add_stereotype m (pick a) "s"
    | _ ->
        (* orphan: owner never lists raw-added elements *)
        let m, id = Mof.Model.fresh_id m in
        Mof.Model.add m
          (forged_attr ~id ~name:(name b) ~owner:(Some (pick a)) ~target:(pick b))
  with Mof.Builder.Builder_error _ -> m

(* ---- Id.Set against Stdlib's set ---------------------------------------- *)

(* Random scripts run on the trie and on Stdlib's balanced-tree set, which
   is the reference here and nowhere else. Ids come from near 0, a dense
   range, near [max_int] and the negatives down to [min_int], so the tries
   branch on low bits, high bits and the sign bit. *)
module Set_props = struct
  module S = Mof.Id.Set
  module Ref = Set.Make (Int)

  type step =
    | Add of int
    | Remove of int
    | Union of int list
    | Inter of int list
    | Diff of int list
    | Filter of int  (** keeps [x mod k <> 0] *)
    | Of_list of int list
    | Earlier of int * int
        (** (merge, back): merge with the state [back] steps before, which
            shares subtrees with the current one *)

  let id_gen =
    QCheck2.Gen.(
      oneof
        [
          int_range 0 40;
          int_range 1000 1031;
          map (fun d -> max_int - d) (int_range 0 40);
          int_range (-40) (-1);
          map (fun d -> min_int + d) (int_range 0 3);
        ])

  let step_gen =
    QCheck2.Gen.(
      let ids = list_size (int_range 0 12) id_gen in
      frequency
        [
          (5, map (fun x -> Add x) id_gen);
          (3, map (fun x -> Remove x) id_gen);
          (2, map (fun l -> Union l) ids);
          (1, map (fun l -> Inter l) ids);
          (2, map (fun l -> Diff l) ids);
          (1, map (fun k -> Filter k) (int_range 2 5));
          (1, map (fun l -> Of_list l) ids);
          (3, map2 (fun m b -> Earlier (m, b)) (int_range 0 4) (int_range 1 6));
        ])

  let script_gen = QCheck2.Gen.(list_size (int_range 1 40) step_gen)

  let print_step =
    let ints l = String.concat ";" (List.map string_of_int l) in
    function
    | Add x -> Printf.sprintf "add %d" x
    | Remove x -> Printf.sprintf "remove %d" x
    | Union l -> Printf.sprintf "union [%s]" (ints l)
    | Inter l -> Printf.sprintf "inter [%s]" (ints l)
    | Diff l -> Printf.sprintf "diff [%s]" (ints l)
    | Filter k -> Printf.sprintf "filter mod %d" k
    | Of_list l -> Printf.sprintf "of_list [%s]" (ints l)
    | Earlier (m, b) -> Printf.sprintf "earlier %d back %d" m b

  let print_script steps = String.concat "; " (List.map print_step steps)
  let of_ints l = S.of_list (List.map Mof.Id.of_int l)
  let ints s = List.map Mof.Id.to_int (S.elements s)

  let step history (s, r) = function
    | Add x -> (S.add (Mof.Id.of_int x) s, Ref.add x r)
    | Remove x -> (S.remove (Mof.Id.of_int x) s, Ref.remove x r)
    | Union l -> (S.union s (of_ints l), Ref.union r (Ref.of_list l))
    | Inter l -> (S.inter s (of_ints l), Ref.inter r (Ref.of_list l))
    | Diff l -> (S.diff s (of_ints l), Ref.diff r (Ref.of_list l))
    | Filter k ->
        let keep x = x mod k <> 0 in
        (S.filter (fun id -> keep (Mof.Id.to_int id)) s, Ref.filter keep r)
    | Of_list l -> (of_ints l, Ref.of_list l)
    | Earlier (m, b) -> (
        let s', r' = List.nth history ((b - 1) mod List.length history) in
        match m with
        | 0 -> (S.union s s', Ref.union r r')
        | 1 -> (S.union s' s, Ref.union r' r)
        | 2 -> (S.inter s s', Ref.inter r r')
        | 3 -> (S.diff s s', Ref.diff r r')
        | _ -> (S.diff s' s, Ref.diff r' r))

  let probes = [ 0; 1; 31; 1000; 1015; 1031; max_int; max_int - 1; -1; -40; min_int; min_int + 1 ]

  let extreme get s =
    match get s with x -> Some (Mof.Id.to_int x) | exception Not_found -> None

  (* Every read agrees with the reference; the same ids in another order
     build a [Stdlib.(=)] set; no-op updates return their argument. *)
  let agree ~ids (s, r) =
    let want = Ref.elements r in
    let visited = ref [] in
    let kept =
      S.filter
        (fun id ->
          visited := Mof.Id.to_int id :: !visited;
          true)
        s
    in
    ints s = want
    && List.rev (S.fold (fun id acc -> Mof.Id.to_int id :: acc) s []) = want
    && List.rev !visited = want
    && S.cardinal s = Ref.cardinal r
    && S.is_empty s = Ref.is_empty r
    && List.for_all (fun x -> S.mem (Mof.Id.of_int x) s = Ref.mem x r) (probes @ ids)
    && Option.map Mof.Id.to_int (S.min_elt_opt s) = Ref.min_elt_opt r
    && extreme S.max_elt s = Ref.max_elt_opt r
    && S.equal s (of_ints (List.rev want))
    && s = of_ints (List.rev want)
    && kept == s
    && List.for_all (fun x -> S.add (Mof.Id.of_int x) s == s) want
    && List.for_all
         (fun x -> Ref.mem x r || S.remove (Mof.Id.of_int x) s == s)
         (probes @ ids)

  let run steps =
    let ids =
      List.concat_map
        (function
          | Add x | Remove x -> [ x ]
          | Union l | Inter l | Diff l | Of_list l -> l
          | Filter _ | Earlier _ -> [])
        steps
    in
    let check_step history state st =
      let next = step history state st in
      if not (agree ~ids next) then
        QCheck2.Test.fail_reportf "after %s: trie [%s], reference [%s]"
          (print_step st)
          (String.concat ";" (List.map string_of_int (ints (fst next))))
          (String.concat ";" (List.map string_of_int (Ref.elements (snd next))));
      List.iter
        (fun (s', r') ->
          if S.equal (fst next) s' <> Ref.equal (snd next) r'
             || (fst next = s') <> Ref.equal (snd next) r'
          then
            QCheck2.Test.fail_reportf "after %s: equal disagrees with an earlier state"
              (print_step st))
        history;
      next :: history
    in
    ignore (List.fold_left (fun history st -> check_step history (List.hd history) st)
      [ (S.empty, Ref.empty) ] steps);
    true
end

(* ---- properties ------------------------------------------------------- *)

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"Id.Set agrees with Stdlib's Set.Make (Int)"
        ~count:300 ~print:Set_props.print_script Set_props.script_gen Set_props.run;
      QCheck2.Test.make ~name:"generated models are well-formed" ~count:50
        Gen.model_gen (fun m -> Mof.Wellformed.check m = []);
      QCheck2.Test.make ~name:"self-diff is empty" ~count:50 Gen.model_gen
        (fun m -> Mof.Id.Set.is_empty (Mof.Diff.touched (Mof.Diff.compute ~old_model:m ~new_model:m)));
      QCheck2.Test.make ~name:"adding a class is visible in the diff" ~count:50
        Gen.model_gen (fun m ->
          let m2, id = Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:"Zz" in
          let d = Mof.Diff.compute ~old_model:m ~new_model:m2 in
          Mof.Id.Set.mem id d.Mof.Diff.added);
      QCheck2.Test.make ~name:"qualified_name is rooted" ~count:30 Gen.model_gen
        (fun m ->
          List.for_all
            (fun (e : Mof.Element.t) ->
              let q = Mof.Query.qualified_name m e.Mof.Element.id in
              String.length q > 0)
            (Mof.Model.elements m));
      QCheck2.Test.make
        ~name:"indexes, journal, diff and queries match a full rescan"
        ~count:60 ops_gen
        (fun ops ->
          let base = Fixtures.banking () in
          let final, _ = List.fold_left apply_store_op (base, []) ops in
          indexes_agree final
          && journal_complete base final
          && diff_equal
               (Mof.Diff.compute ~old_model:base ~new_model:final)
               (Mof.Diff.compute_scan ~old_model:base ~new_model:final)
          && queries_agree final);
      QCheck2.Test.make
        ~name:"scoped well-formedness equals the full pass" ~count:80 ops_gen
        (fun ops ->
          let base = Fixtures.banking () in
          let final = List.fold_left apply_wf_op base ops in
          let touched =
            Mof.Diff.touched (Mof.Diff.compute ~old_model:base ~new_model:final)
          in
          Mof.Wellformed.check final
          = Mof.Wellformed.check_touched final ~touched);
    ]

let () =
  Alcotest.run "mof"
    [
      ("id", id_tests);
      ("kind", kind_tests);
      ("element", element_tests);
      ("model", model_tests);
      ("builder", builder_tests);
      ("query", query_tests);
      ("wellformed", wellformed_tests);
      ("diff", diff_tests);
      ("store", store_tests);
      ("pp", pp_tests);
      ("properties", property_tests);
    ]
