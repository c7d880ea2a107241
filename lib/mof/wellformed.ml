type rule =
  | Dangling_reference
  | Owner_mismatch
  | Duplicate_name
  | Inheritance_cycle
  | Invalid_multiplicity
  | Malformed_association
  | Abstract_leaf
  | Empty_name
  | Duplicate_literal

type violation = {
  subject : Id.t;
  rule : rule;
  message : string;
}

let rule_name = function
  | Dangling_reference -> "dangling-reference"
  | Owner_mismatch -> "owner-mismatch"
  | Duplicate_name -> "duplicate-name"
  | Inheritance_cycle -> "inheritance-cycle"
  | Invalid_multiplicity -> "invalid-multiplicity"
  | Malformed_association -> "malformed-association"
  | Abstract_leaf -> "abstract-leaf"
  | Empty_name -> "empty-name"
  | Duplicate_literal -> "duplicate-literal"

let violation subject rule fmt =
  Format.kasprintf (fun message -> { subject; rule; message }) fmt

(* Containment children as recorded in the parent's kind payload. *)
let containment_children e =
  match e.Element.kind with
  | Kind.Package { owned } -> owned
  | Kind.Class c -> c.attributes @ c.operations
  | Kind.Interface { operations } -> operations
  | Kind.Operation o -> o.params
  | Kind.Attribute _ | Kind.Parameter _ | Kind.Association _
  | Kind.Generalization _ | Kind.Dependency _ | Kind.Constraint_ _
  | Kind.Enumeration _ ->
      []

let check_references m e =
  List.filter_map
    (fun id ->
      if Model.mem m id then None
      else
        Some
          (violation e.Element.id Dangling_reference
             "%s %s references unbound id %s" (Element.metaclass e)
             e.Element.name (Id.to_string id)))
    (Kind.refs e.Element.kind)

(* Membership in an owner's containment lists (the payload view — distinct
   from the [owner] field, which is the view the rule is checking against).
   Memoized per check run: a scoped or full check visits every child of an
   owner, and scanning the owner's lists once per child is quadratic in its
   fan-out. *)
let listed_memo () =
  let tbl = Hashtbl.create 16 in
  fun (owner_elt : Element.t) child ->
    let set =
      match Hashtbl.find_opt tbl owner_elt.Element.id with
      | Some s -> s
      | None ->
          let s = Id.Set.of_list (containment_children owner_elt) in
          Hashtbl.add tbl owner_elt.Element.id s;
          s
    in
    Id.Set.mem child set

let check_owner ~listed m e =
  match e.Element.owner with
  | None ->
      if Id.equal e.Element.id (Model.root m) then []
      else
        [
          violation e.Element.id Owner_mismatch "%s %s has no owner"
            (Element.metaclass e) e.Element.name;
        ]
  | Some owner -> (
      match Model.find m owner with
      | None ->
          [
            violation e.Element.id Owner_mismatch
              "%s %s owned by unbound id %s" (Element.metaclass e)
              e.Element.name (Id.to_string owner);
          ]
      | Some owner_elt ->
          if listed owner_elt e.Element.id then []
          else
            [
              violation e.Element.id Owner_mismatch
                "%s %s missing from containment list of %s"
                (Element.metaclass e) e.Element.name owner_elt.Element.name;
            ])

let check_duplicates m e =
  let children = containment_children e in
  (* a linear scan over the already-seen keys for ordinary fan-outs: most
     elements own a handful of children, and a per-call hash table (array
     allocation plus generic hashing of string pairs) costs more than the
     handful of string comparisons; wide owners (packages) keep the table *)
  let dup =
    if List.compare_length_with children 16 <= 0 then begin
      let seen = ref [] in
      fun mc nm ->
        if
          List.exists
            (fun (m0, n0) -> String.equal m0 mc && String.equal n0 nm)
            !seen
        then true
        else begin
          seen := (mc, nm) :: !seen;
          false
        end
    end
    else begin
      let seen = Hashtbl.create 16 in
      fun mc nm ->
        let key = (mc, nm) in
        if Hashtbl.mem seen key then true
        else begin
          Hashtbl.add seen key ();
          false
        end
    end
  in
  List.filter_map
    (fun cid ->
      match Model.find m cid with
      | None -> None
      | Some c ->
          if dup (Element.metaclass c) c.Element.name then
            Some
              (violation cid Duplicate_name "duplicate %s %s in %s"
                 (Element.metaclass c) c.Element.name e.Element.name)
          else None)
    children

let check_inheritance m e =
  match e.Element.kind with
  | Kind.Class _ ->
      let closure = Query.supers_transitive m e.Element.id in
      if List.exists (Id.equal e.Element.id) closure then
        [
          violation e.Element.id Inheritance_cycle
            "class %s participates in an inheritance cycle" e.Element.name;
        ]
      else []
  | _ -> []

let check_multiplicity e =
  let bad m = not (Kind.mult_valid m) in
  match e.Element.kind with
  | Kind.Attribute { attr_mult; _ } when bad attr_mult ->
      [
        violation e.Element.id Invalid_multiplicity
          "attribute %s has invalid multiplicity %s" e.Element.name
          (Kind.mult_to_string attr_mult);
      ]
  | Kind.Association { ends } ->
      List.filter_map
        (fun (en : Kind.assoc_end) ->
          if bad en.end_mult then
            Some
              (violation e.Element.id Invalid_multiplicity
                 "association end %s has invalid multiplicity %s" en.end_name
                 (Kind.mult_to_string en.end_mult))
          else None)
        ends
  | _ -> []

let check_association e =
  match e.Element.kind with
  | Kind.Association { ends } when List.length ends < 2 ->
      [
        violation e.Element.id Malformed_association
          "association %s has %d end(s); at least two are required"
          e.Element.name (List.length ends);
      ]
  | _ -> []

let check_abstract m e =
  match e.Element.kind with
  | Kind.Class { is_abstract = false; operations; _ } ->
      let abstract_op oid =
        match (Model.find_exn m oid).Element.kind with
        | Kind.Operation { is_abstract_op = true; _ } -> true
        | _ -> false
      in
      (match List.find_opt abstract_op operations with
      | Some oid ->
          [
            violation e.Element.id Abstract_leaf
              "concrete class %s declares abstract operation %s" e.Element.name
              (Model.find_exn m oid).Element.name;
          ]
      | None -> [])
  | _ -> []

let check_literals e =
  match e.Element.kind with
  | Kind.Enumeration { literals } ->
      let sorted = List.sort_uniq String.compare literals in
      if List.length sorted = List.length literals then []
      else
        [
          violation e.Element.id Duplicate_literal
            "enumeration %s declares a literal twice" e.Element.name;
        ]
  | _ -> []

let check_name e =
  if String.equal e.Element.name "" then
    [ violation e.Element.id Empty_name "%s has an empty name" (Element.metaclass e) ]
  else []

let check_element ~listed m e =
  check_name e
  @ check_references m e
  @ check_owner ~listed m e
  @ check_duplicates m e
  @ check_inheritance m e
  @ check_multiplicity e
  @ check_association e
  @ check_abstract m e
  @ check_literals e

let check m =
  let listed = listed_memo () in
  Model.fold (fun e acc -> acc @ check_element ~listed m e) m []

(* The ids whose rule verdicts can depend on a touched id, found in one
   pass over the model and split by how much re-checking each needs:

   - full re-check: the touched elements themselves (every local rule);
     every element whose refs mention a touched id (Dangling_reference
     after a removal or re-addition; Duplicate_name and Abstract_leaf,
     which an owner checks by reading its children's payloads — the owner
     references its children); and transitive subclasses of touched ids
     (Inheritance_cycle: a change to a class's supers can flip the verdict
     of every class whose superclass closure passes through it);

   - owner check only: the elements whose [owner] field designates a
     touched id. An untouched child's payload-local rules cannot flip, and
     every cross-element rule except Owner_mismatch reaches the child
     through refs — covered by the refs test above. Only the owner's
     containment lists, which Owner_mismatch reads, may have changed under
     it, so re-running the other eight rules on every child of a touched
     owner (all classes of a package that gained one constraint, say) is
     pure waste.

   The pass collects each class's supers, and the subclasses are closed
   over that list afterwards: a class joins when one of its supers is
   touched or already joined, until a round adds none.

   This over-approximates — re-checking an unaffected element is merely
   redundant work — but never under-approximates: every rule reads only the
   element itself, its reference targets, its owner's payload, or its
   superclass closure, and each of those dependencies is covered above. *)
let scope_of m touched =
  let touches = List.exists (fun id -> Id.Set.mem id touched) in
  let refer, owned, classes =
    Model.fold
      (fun e (refer, owned, classes) ->
        let id = e.Element.id in
        let refer =
          if touches (Kind.refs e.Element.kind) then Id.Set.add id refer else refer
        in
        let owned =
          match e.Element.owner with
          | Some o when Id.Set.mem o touched -> Id.Set.add id owned
          | Some _ | None -> owned
        in
        let classes =
          match e.Element.kind with
          | Kind.Class { supers = _ :: _ as supers; _ } -> (id, supers) :: classes
          | _ -> classes
        in
        (refer, owned, classes))
      m
      (Id.Set.empty, Id.Set.empty, [])
  in
  (* in ascending id order: a subclass is usually created after its supers,
     so one round reaches down a whole chain *)
  let classes = List.rev classes in
  let rec close subs =
    let grown =
      List.fold_left
        (fun subs (id, supers) ->
          if List.exists (fun s -> Id.Set.mem s subs) supers then Id.Set.add id subs
          else subs)
        subs classes
    in
    if grown == subs then subs else close grown
  in
  let full = Id.Set.union (close touched) refer in
  (Id.Set.filter (Model.mem m) (Id.Set.union full owned), full)

let check_touched m ~touched =
  (* Id.Set.fold visits ids in ascending order, so the violations of scoped
     elements appear in exactly the order the full [check] lists them —
     Owner_mismatch is emitted while checking the child on both paths. *)
  let scope, full = scope_of m touched in
  let listed = listed_memo () in
  Id.Set.fold
    (fun id acc ->
      let e = Model.find_exn m id in
      if Id.Set.mem id full then acc @ check_element ~listed m e
      else acc @ check_owner ~listed m e)
    scope []

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s: %s" (rule_name v.rule) (Id.to_string v.subject)
    v.message
