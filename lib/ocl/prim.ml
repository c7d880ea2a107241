(* Runtime semantics of OCL values.

   Everything here is the value-level meaning of an operator *after* its
   operands have been produced — conversions, three-valued logic steps,
   property/operation dispatch, collection operations, iterator and probe
   semantics. The evaluator (eval.ml) only adds how operands are produced
   (environment walks).

   Laziness is part of the contract: operands that the walker does not
   evaluate on some path (the rhs of a short-circuiting [and], collection
   -> op arguments after an undefined receiver, iterator bodies over an
   empty source) arrive here as thunks and are forced exactly where the
   walker would have recursed. *)

exception Eval_error of string

let error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* Three-valued view of a boolean operand. *)
let as_bool3 what = function
  | Value.V_bool b -> Some b
  | Value.V_undefined -> None
  | v -> error "%s expects a Boolean, found %s" what (Value.type_name v)

let as_int what = function
  | Value.V_int n -> n
  | v -> error "%s expects an Integer, found %s" what (Value.type_name v)

let as_string what = function
  | Value.V_string s -> s
  | v -> error "%s expects a String, found %s" what (Value.type_name v)

let as_items what = function
  | Value.V_set xs | Value.V_seq xs | Value.V_bag xs -> xs
  | v -> error "%s expects a collection, found %s" what (Value.type_name v)

(* Rebuild a collection of the same kind as [like] from [items]. *)
let rebuild like items =
  match like with
  | Value.V_set _ -> Value.set items
  | Value.V_seq _ -> Value.seq items
  | Value.V_bag _ -> Value.bag items
  | _ -> assert false

let flatten_one items =
  List.concat_map
    (fun v -> match Value.items v with Some xs -> xs | None -> [ v ])
    items

let numeric2 what a b ~int ~real =
  match (a, b) with
  | Value.V_int x, Value.V_int y -> int x y
  | Value.V_int x, Value.V_real y -> real (float_of_int x) y
  | Value.V_real x, Value.V_int y -> real x (float_of_int y)
  | Value.V_real x, Value.V_real y -> real x y
  | Value.V_undefined, _ | _, Value.V_undefined -> Value.V_undefined
  | _, _ ->
      error "%s expects numeric operands, found %s and %s" what
        (Value.type_name a) (Value.type_name b)

(* Matching ids for a name probe: the name index, restricted to the
   classifier's kind index. Both are the same indexes the extent fold
   would have consulted element by element. *)
let probe_ids m classifier s =
  let named = Mof.Model.by_name m s in
  if String.equal classifier "Element" then named
  else Mof.Id.Set.inter named (Mof.Model.by_kind m classifier)

let probe_extent_is_empty m classifier =
  if String.equal classifier "Element" then Mof.Model.is_empty m
  else Mof.Id.Set.is_empty (Mof.Model.by_kind m classifier)

let value_conforms_to v ~exact name =
  match v with
  | Value.V_elem _ -> false (* handled by the caller with metaclass data *)
  | Value.V_int _ ->
      String.equal name "Integer" || ((not exact) && String.equal name "Real")
  | _ -> String.equal (Value.type_name v) name

(* ---- strict operators --------------------------------------------------- *)

let not3 v =
  match as_bool3 "not" v with
  | Some b -> Value.V_bool (not b)
  | None -> Value.V_undefined

let neg = function
  | Value.V_int n -> Value.V_int (-n)
  | Value.V_real f -> Value.V_real (-.f)
  | Value.V_undefined -> Value.V_undefined
  | v -> error "unary minus expects a number, found %s" (Value.type_name v)

let if3 v ~then_ ~else_ =
  match v with
  | Value.V_bool true -> then_ ()
  | Value.V_bool false -> else_ ()
  | Value.V_undefined -> Value.V_undefined
  | v -> error "if condition must be Boolean, found %s" (Value.type_name v)

(* Short-circuit steps: the lhs has been evaluated, the rhs has not. Each
   forces [rhs] exactly when the walker would have recursed into it. *)
let and_step va ~rhs =
  match as_bool3 "and" va with
  | Some false -> Value.V_bool false
  | ta -> (
      match (ta, as_bool3 "and" (rhs ())) with
      | _, Some false -> Value.V_bool false
      | Some true, Some true -> Value.V_bool true
      | _, _ -> Value.V_undefined)

let or_step va ~rhs =
  match as_bool3 "or" va with
  | Some true -> Value.V_bool true
  | ta -> (
      match (ta, as_bool3 "or" (rhs ())) with
      | _, Some true -> Value.V_bool true
      | Some false, Some false -> Value.V_bool false
      | _, _ -> Value.V_undefined)

let implies_step va ~rhs =
  match as_bool3 "implies" va with
  | Some false -> Value.V_bool true
  | ta -> (
      match (ta, as_bool3 "implies" (rhs ())) with
      | _, Some true -> Value.V_bool true
      | Some true, Some false -> Value.V_bool false
      | _, _ -> Value.V_undefined)

(* Fully strict binops — both operands already evaluated, left to right.
   [Op_and]/[Op_or]/[Op_implies] never reach here (they short-circuit
   through the steps above). *)
let strict_binop op va vb =
  match op with
  | Ast.Op_xor -> (
      let ta = as_bool3 "xor" va in
      let tb = as_bool3 "xor" vb in
      match (ta, tb) with
      | Some x, Some y -> Value.V_bool (x <> y)
      | _, _ -> Value.V_undefined)
  | Ast.Op_eq -> Value.V_bool (Value.equal va vb)
  | Ast.Op_neq -> Value.V_bool (not (Value.equal va vb))
  | Ast.Op_lt | Ast.Op_gt | Ast.Op_le | Ast.Op_ge -> (
      match (va, vb) with
      | Value.V_undefined, _ | _, Value.V_undefined -> Value.V_undefined
      | Value.V_string x, Value.V_string y ->
          let c = String.compare x y in
          Value.V_bool
            (match op with
            | Ast.Op_lt -> c < 0
            | Ast.Op_gt -> c > 0
            | Ast.Op_le -> c <= 0
            | Ast.Op_ge -> c >= 0
            | _ -> assert false)
      | _, _ ->
          let cmp c =
            match op with
            | Ast.Op_lt -> c < 0
            | Ast.Op_gt -> c > 0
            | Ast.Op_le -> c <= 0
            | Ast.Op_ge -> c >= 0
            | _ -> assert false
          in
          numeric2
            (Ast.binop_name op)
            va vb
            ~int:(fun x y -> Value.V_bool (cmp (Int.compare x y)))
            ~real:(fun x y -> Value.V_bool (cmp (Float.compare x y))))
  | Ast.Op_add -> (
      match (va, vb) with
      | Value.V_string x, Value.V_string y -> Value.V_string (x ^ y)
      | _, _ ->
          numeric2 "+" va vb
            ~int:(fun x y -> Value.V_int (x + y))
            ~real:(fun x y -> Value.V_real (x +. y)))
  | Ast.Op_sub ->
      numeric2 "-" va vb
        ~int:(fun x y -> Value.V_int (x - y))
        ~real:(fun x y -> Value.V_real (x -. y))
  | Ast.Op_mul ->
      numeric2 "*" va vb
        ~int:(fun x y -> Value.V_int (x * y))
        ~real:(fun x y -> Value.V_real (x *. y))
  | Ast.Op_div ->
      numeric2 "/" va vb
        ~int:(fun x y ->
          if y = 0 then Value.V_undefined
          else Value.V_real (float_of_int x /. float_of_int y))
        ~real:(fun x y ->
          if y = 0.0 then Value.V_undefined else Value.V_real (x /. y))
  | Ast.Op_idiv ->
      numeric2 "div" va vb
        ~int:(fun x y ->
          if y = 0 then Value.V_undefined else Value.V_int (x / y))
        ~real:(fun _ _ -> error "div expects Integer operands")
  | Ast.Op_mod ->
      numeric2 "mod" va vb
        ~int:(fun x y ->
          if y = 0 then Value.V_undefined else Value.V_int (x mod y))
        ~real:(fun _ _ -> error "mod expects Integer operands")
  | Ast.Op_and | Ast.Op_or | Ast.Op_implies -> assert false

(* ---- property and operation dispatch ------------------------------------ *)

let prop_on_value m v name =
  match v with
  | Value.V_elem id -> (
      match Meta.property m id name with
      | Some value -> value
      | None -> error "element has no property %s" name)
  | Value.V_undefined -> Value.V_undefined
  | v -> error "%s has no property %s" (Value.type_name v) name

let prop m v name =
  match v with
  | Value.V_undefined -> Value.V_undefined
  | Value.V_elem id -> (
      match Meta.property m id name with
      | Some v -> v
      | None ->
          let metaclass =
            match Mof.Model.find m id with
            | Some e -> Mof.Element.metaclass e
            | None -> "Element"
          in
          error "metaclass %s has no property %s" metaclass name)
  | Value.V_set xs | Value.V_bag xs ->
      (* implicit collect, flattening one level *)
      Value.bag (flatten_one (List.map (fun v -> prop_on_value m v name) xs))
  | Value.V_seq xs ->
      Value.seq (flatten_one (List.map (fun v -> prop_on_value m v name) xs))
  | v -> error "%s has no property %s" (Value.type_name v) name

let elem_conforms m id ~exact name =
  if String.equal name "Element" then not exact
  else
    match Mof.Model.find m id with
    | Some e -> String.equal (Mof.Element.metaclass e) name
    | None -> false

let string_call s name args =
  match (name, args) with
  | "size", [] -> Value.V_int (String.length s)
  | "concat", [ other ] -> Value.V_string (s ^ as_string "concat" other)
  | "toUpper", [] -> Value.V_string (String.uppercase_ascii s)
  | "toLower", [] -> Value.V_string (String.lowercase_ascii s)
  | "substring", [ i; j ] ->
      (* OCL substring is 1-based and inclusive on both ends *)
      let i = as_int "substring" i and j = as_int "substring" j in
      if i < 1 || j > String.length s || i > j + 1 then Value.V_undefined
      else Value.V_string (String.sub s (i - 1) (j - i + 1))
  | "contains", [ other ] ->
      let needle = as_string "contains" other in
      let hay_len = String.length s and needle_len = String.length needle in
      let rec search i =
        if i + needle_len > hay_len then false
        else if String.sub s i needle_len = needle then true
        else search (i + 1)
      in
      Value.V_bool (search 0)
  | "startsWith", [ other ] ->
      let prefix = as_string "startsWith" other in
      let n = String.length prefix in
      Value.V_bool (String.length s >= n && String.sub s 0 n = prefix)
  | "endsWith", [ other ] ->
      let suffix = as_string "endsWith" other in
      let n = String.length suffix in
      Value.V_bool
        (String.length s >= n && String.sub s (String.length s - n) n = suffix)
  | "toInteger", [] -> (
      match int_of_string_opt s with
      | Some n -> Value.V_int n
      | None -> Value.V_undefined)
  | "toReal", [] -> (
      match float_of_string_opt s with
      | Some f -> Value.V_real f
      | None -> Value.V_undefined)
  | _, _ -> error "String has no operation %s/%d" name (List.length args)

let numeric_call v name args =
  match (v, name, args) with
  | Value.V_int n, "abs", [] -> Value.V_int (abs n)
  | Value.V_real f, "abs", [] -> Value.V_real (Float.abs f)
  | Value.V_int n, "floor", [] -> Value.V_int n
  | Value.V_real f, "floor", [] -> Value.V_int (int_of_float (Float.floor f))
  | Value.V_int n, "round", [] -> Value.V_int n
  | Value.V_real f, "round", [] -> Value.V_int (int_of_float (Float.round f))
  | _, "max", [ other ] ->
      numeric2 "max" v other
        ~int:(fun x y -> Value.V_int (max x y))
        ~real:(fun x y -> Value.V_real (Float.max x y))
  | _, "min", [ other ] ->
      numeric2 "min" v other
        ~int:(fun x y -> Value.V_int (min x y))
        ~real:(fun x y -> Value.V_real (Float.min x y))
  | _, _, _ ->
      error "%s has no operation %s/%d" (Value.type_name v) name
        (List.length args)

let call_on_value m v name args =
  match (name, args) with
  | "oclIsUndefined", [] -> Value.V_bool false
  | _ -> (
      match v with
      | Value.V_string s -> string_call s name args
      | Value.V_int _ | Value.V_real _ -> numeric_call v name args
      | Value.V_elem id -> (
          match Meta.operation m id name args with
          | Some result -> result
          | None ->
              error "element has no operation %s/%d" name (List.length args))
      | v ->
          error "%s has no operation %s/%d" (Value.type_name v) name
            (List.length args))

(* The general call path once receiver and arguments are values. *)
let call m v name args =
  match v with
  | Value.V_undefined ->
      if String.equal name "oclIsUndefined" && args = [] then Value.V_bool true
      else Value.V_undefined
  | _ -> call_on_value m v name args

(* oclIsKindOf / oclIsTypeOf / oclAsType with an evaluated receiver; the
   type argument is syntactic and never evaluated. *)
let type_op m name ty v =
  let exact = String.equal name "oclIsTypeOf" in
  let conforms =
    match v with
    | Value.V_elem id ->
        elem_conforms m id ~exact ty || ((not exact) && String.equal ty "Element")
    | Value.V_undefined -> false
    | v -> value_conforms_to v ~exact ty
  in
  match name with
  | "oclAsType" -> if conforms then v else Value.V_undefined
  | _ -> Value.V_bool conforms

let all_instances m c =
  match Meta.all_instances m c with
  | Some v -> v
  | None -> error "unknown classifier %s in allInstances" c

(* ---- collection operations ---------------------------------------------- *)

(* [args] is forced after the receiver's undefined check *and* after the
   collection coercion — an undefined receiver returns without touching
   the arguments, and a non-collection receiver errors before them,
   exactly as the walker does. *)
let coll_op name v ~args =
  match v with
  | Value.V_undefined -> Value.V_undefined
  | _ -> (
      let xs = as_items ("->" ^ name) v in
      let arg_values = args () in
      match (name, arg_values) with
      | "size", [] -> Value.V_int (List.length xs)
      | "isEmpty", [] -> Value.V_bool (xs = [])
      | "notEmpty", [] -> Value.V_bool (xs <> [])
      | "includes", [ x ] -> Value.V_bool (List.exists (Value.equal x) xs)
      | "excludes", [ x ] -> Value.V_bool (not (List.exists (Value.equal x) xs))
      | "includesAll", [ c ] ->
          let ys = as_items "includesAll" c in
          Value.V_bool (List.for_all (fun y -> List.exists (Value.equal y) xs) ys)
      | "excludesAll", [ c ] ->
          let ys = as_items "excludesAll" c in
          Value.V_bool
            (List.for_all (fun y -> not (List.exists (Value.equal y) xs)) ys)
      | "count", [ x ] ->
          Value.V_int (List.length (List.filter (Value.equal x) xs))
      | "sum", [] ->
          let add acc x =
            numeric2 "sum" acc x
              ~int:(fun a b -> Value.V_int (a + b))
              ~real:(fun a b -> Value.V_real (a +. b))
          in
          List.fold_left add (Value.V_int 0) xs
      | "max", [] -> (
          match xs with
          | [] -> Value.V_undefined
          | first :: rest ->
              List.fold_left
                (fun acc x -> if Value.compare x acc > 0 then x else acc)
                first rest)
      | "min", [] -> (
          match xs with
          | [] -> Value.V_undefined
          | first :: rest ->
              List.fold_left
                (fun acc x -> if Value.compare x acc < 0 then x else acc)
                first rest)
      | "first", [] -> ( match xs with [] -> Value.V_undefined | x :: _ -> x)
      | "last", [] -> (
          match List.rev xs with [] -> Value.V_undefined | x :: _ -> x)
      | "at", [ i ] ->
          let i = as_int "at" i in
          if i < 1 || i > List.length xs then Value.V_undefined
          else List.nth xs (i - 1)
      | "indexOf", [ x ] ->
          let rec search i = function
            | [] -> Value.V_undefined
            | y :: rest ->
                if Value.equal x y then Value.V_int i else search (i + 1) rest
          in
          search 1 xs
      | "asSet", [] -> Value.set xs
      | "asSequence", [] -> Value.seq xs
      | "asBag", [] -> Value.bag xs
      | "union", [ c ] -> (
          let ys = as_items "union" c in
          match v with
          | Value.V_seq _ -> Value.seq (xs @ ys)
          | Value.V_bag _ -> Value.bag (xs @ ys)
          | _ -> Value.set (xs @ ys))
      | "intersection", [ c ] ->
          let ys = as_items "intersection" c in
          Value.set (List.filter (fun x -> List.exists (Value.equal x) ys) xs)
      | "including", [ x ] -> rebuild v (xs @ [ x ])
      | "excluding", [ x ] ->
          rebuild v (List.filter (fun y -> not (Value.equal x y)) xs)
      | "append", [ x ] -> Value.seq (xs @ [ x ])
      | "prepend", [ x ] -> Value.seq (x :: xs)
      | "reverse", [] -> Value.seq (List.rev xs)
      | "flatten", [] -> rebuild v (flatten_one xs)
      | _, _ ->
          error "collection has no operation %s/%d" name
            (List.length arg_values))

(* ---- iterators ---------------------------------------------------------- *)

(* [eval_one] evaluates the body with the single iterator variable bound
   to an item; [eval_tuple] binds all [nvars] variables in declaration
   order (forAll/exists range over the cartesian product). The arity
   error for other iterators is raised lazily, per item, exactly where
   the walker's per-item match would have raised it. *)
let iter name v ~nvars ~eval_one ~eval_tuple =
  match v with
  | Value.V_undefined -> Value.V_undefined
  | _ -> (
      let xs = as_items ("->" ^ name) v in
      let eval_body_for item =
        if nvars = 1 then eval_one item
        else error "%s expects exactly one iterator variable" name
      in
      match name with
      | "forAll" | "exists" ->
          (* multiple variables range over the cartesian product *)
          let rec tuples acc k =
            if k = 0 then [ List.rev acc ]
            else List.concat_map (fun x -> tuples (x :: acc) (k - 1)) xs
          in
          let assignments = tuples [] nvars in
          let results =
            List.map (fun tuple -> as_bool3 name (eval_tuple tuple)) assignments
          in
          let is_forall = String.equal name "forAll" in
          if is_forall then
            if List.exists (fun r -> r = Some false) results then
              Value.V_bool false
            else if List.exists (fun r -> r = None) results then
              Value.V_undefined
            else Value.V_bool true
          else if List.exists (fun r -> r = Some true) results then
            Value.V_bool true
          else if List.exists (fun r -> r = None) results then Value.V_undefined
          else Value.V_bool false
      | "select" ->
          rebuild v
            (List.filter (fun x -> eval_body_for x = Value.V_bool true) xs)
      | "reject" ->
          rebuild v
            (List.filter (fun x -> eval_body_for x = Value.V_bool false) xs)
      | "collect" -> (
          let mapped = flatten_one (List.map eval_body_for xs) in
          match v with
          | Value.V_seq _ -> Value.seq mapped
          | _ -> Value.bag mapped)
      | "one" ->
          let hits =
            List.length
              (List.filter (fun x -> eval_body_for x = Value.V_bool true) xs)
          in
          Value.V_bool (hits = 1)
      | "any" -> (
          match
            List.find_opt (fun x -> eval_body_for x = Value.V_bool true) xs
          with
          | Some x -> x
          | None -> Value.V_undefined)
      | "isUnique" ->
          let keys = List.map eval_body_for xs in
          let deduped = Value.set keys in
          (match deduped with
          | Value.V_set ds -> Value.V_bool (List.length ds = List.length keys)
          | _ -> assert false)
      | "sortedBy" ->
          let keyed = List.map (fun x -> (eval_body_for x, x)) xs in
          let sorted =
            List.stable_sort (fun (ka, _) (kb, _) -> Value.compare ka kb) keyed
          in
          Value.seq (List.map snd sorted)
      | "closure" ->
          (* transitive closure of the body step, as a set *)
          let step x =
            match eval_body_for x with
            | Value.V_set ys | Value.V_seq ys | Value.V_bag ys -> ys
            | Value.V_undefined -> []
            | y -> [ y ]
          in
          let rec grow seen frontier =
            match frontier with
            | [] -> seen
            | x :: rest ->
                let next =
                  List.filter
                    (fun y -> not (List.exists (Value.equal y) seen))
                    (step x)
                in
                grow (seen @ next) (rest @ next)
          in
          Value.set (grow xs xs)
      | _ -> error "unknown iterator %s" name)

(* iterate: the receiver is coerced (erroring on undefined — there is no
   undefined guard on this form) before the init expression runs. *)
let iterate v ~init ~step =
  let items = as_items "iterate" v in
  let init_value = init () in
  List.fold_left step init_value items

(* ---- planner probes (past the shadowing check) --------------------------- *)

(* An empty extent yields without touching [rhs], exactly as the fold
   would (it never evaluates the body). *)
let probe_exists m classifier ~rhs =
  if probe_extent_is_empty m classifier then Value.V_bool false
  else begin
    Obs.incr "ocl.plan.index_probe" [];
    match rhs () with
    | Value.V_string s ->
        Value.V_bool (not (Mof.Id.Set.is_empty (probe_ids m classifier s)))
    | _ ->
        (* [x.name] is always a String; equality with any other value is
           uniformly false over the whole extent *)
        Value.V_bool false
  end

let probe_select m classifier ~rhs =
  if probe_extent_is_empty m classifier then Value.set []
  else begin
    Obs.incr "ocl.plan.index_probe" [];
    match rhs () with
    | Value.V_string s ->
        Value.set
          (List.map
             (fun id -> Value.V_elem id)
             (Mof.Id.Set.elements (probe_ids m classifier s)))
    | _ -> Value.set []
  end

let probe_forall m classifier names ~body =
  Obs.incr "ocl.plan.index_probe" [];
  (* Only elements whose name occurs in the literal guard can have a
     non-vacuous consequent (the fold's [implies] short-circuits on a
     false antecedent); every other element contributes [Some true].
     Probing each name keeps ascending-id order, the order the fold
     walks the extent in, so the first error raised is the same. *)
  let ids =
    List.fold_left
      (fun acc s -> Mof.Id.Set.union acc (probe_ids m classifier s))
      Mof.Id.Set.empty names
  in
  let results =
    List.map (fun id -> as_bool3 "implies" (body id)) (Mof.Id.Set.elements ids)
  in
  if List.exists (fun r -> r = Some false) results then Value.V_bool false
  else if List.exists (fun r -> r = None) results then Value.V_undefined
  else Value.V_bool true
