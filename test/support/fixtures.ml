(* Model fixtures shared across the test suites. *)

(* The banking PIM used throughout: two service classes, a data class, an
   association, a generalization, and a constraint — one element of every
   interesting kind. *)
let banking () =
  let m = Mof.Model.create ~name:"banking" in
  let root = Mof.Model.root m in
  let m, bank = Mof.Builder.add_package m ~owner:root ~name:"bank" in
  let m, acct = Mof.Builder.add_class m ~owner:bank ~name:"Account" in
  let m, balance =
    Mof.Builder.add_attribute m ~cls:acct ~name:"balance" ~typ:Mof.Kind.Dt_real
  in
  let m, _ =
    Mof.Builder.add_attribute m ~cls:acct ~name:"number"
      ~typ:Mof.Kind.Dt_string ~visibility:Mof.Kind.Public
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
  let m, savings = Mof.Builder.add_class m ~owner:bank ~name:"SavingsAccount" in
  let m, _ = Mof.Builder.add_generalization m ~child:savings ~parent:acct in
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
            end_aggregation = Mof.Kind.Ag_composite;
          };
        ]
  in
  let m, _ =
    Mof.Builder.add_constraint m ~owner:bank ~name:"positive-balance"
      ~constrained:[ balance ]
      ~body:"Attribute.allInstances()->forAll(a | a.lower >= 0)"
  in
  m

(* Handy handles into the banking fixture. *)
let class_id m name =
  match Mof.Query.find_class m name with
  | Some e -> e.Mof.Element.id
  | None -> failwith ("fixture class missing: " ^ name)

(* A synthetic model with [n] classes, each carrying [attrs] attributes and
   [ops] operations with one parameter — the scaling workload for benches
   and property tests, from the generator [mdweave batch --synthetic]
   uses. *)
let synthetic ?attrs ?ops n =
  Par.Workload.synthetic ?attrs ?ops ~classes:n "synthetic"

let class_names m =
  List.map (fun (e : Mof.Element.t) -> e.Mof.Element.name) (Mof.Query.classes m)

(* A history shaped like mdbench's repo-edit workload: a 100-class model
   and [commits] commits on top, each renaming a class, adding an attribute
   to one or giving one a stereotype. The edits are fixed, not seeded. *)
let edit_history commits =
  let module R = Repository.Repo in
  let base = Par.Workload.synthetic ~classes:100 "history" in
  let classes = Array.of_list (Mof.Id.Set.elements (Mof.Model.by_kind base "Class")) in
  let edit m i =
    let cls = classes.(i * 37 mod Array.length classes) in
    match i mod 3 with
    | 0 -> Mof.Builder.rename m cls (Printf.sprintf "K%d" i)
    | 1 ->
        fst
          (Mof.Builder.add_attribute m ~cls ~name:(Printf.sprintf "a%d" i)
             ~typ:Mof.Kind.Dt_integer)
    | _ -> Mof.Builder.add_stereotype m cls (Printf.sprintf "s%d" i)
  in
  let rec go r i =
    if i > commits then r
    else go (R.commit ~message:"edit" (edit (R.head_model r) i) r) (i + 1)
  in
  go (R.init base) 1

(* A trace entry of [concern] that did [diff]: the transformation it names
   is an identity "T.<concern>" with no parameters. *)
let trace_step ~concern diff =
  let gmt =
    Transform.Gmt.make ~name:("T." ^ concern) ~concern ~formals:[] (fun _ m -> m)
  in
  { Transform.Trace.cmt = Transform.Cmt.specialize_exn gmt []; diff }
