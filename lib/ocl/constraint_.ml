type t = {
  name : string;
  context : string option;
  body : string;
}

let make ?context ~name body = { name; context; body }

(* Scan [$key$] holes; '$' inside identifiers is produced by our own lexer
   only for substituted text, so a simple scan is enough. *)
let fold_holes f acc body =
  let len = String.length body in
  let rec walk acc i =
    if i >= len then acc
    else if body.[i] = '$' then (
      match String.index_from_opt body (i + 1) '$' with
      | None -> acc
      | Some j ->
          let key = String.sub body (i + 1) (j - i - 1) in
          walk (f key acc) (j + 1))
    else walk acc (i + 1)
  in
  walk acc 0

let holes c =
  let keys = List.rev (fold_holes (fun k acc -> k :: acc) [] c.body) in
  List.fold_left (fun acc k -> if List.mem k acc then acc else acc @ [ k ]) [] keys

let substitute bindings c =
  let buf = Buffer.create (String.length c.body) in
  let len = String.length c.body in
  let rec walk i =
    if i >= len then ()
    else if c.body.[i] = '$' then (
      match String.index_from_opt c.body (i + 1) '$' with
      | None -> Buffer.add_substring buf c.body i (len - i)
      | Some j -> (
          let key = String.sub c.body (i + 1) (j - i - 1) in
          match List.assoc_opt key bindings with
          | Some value ->
              Buffer.add_string buf value;
              walk (j + 1)
          | None ->
              Buffer.add_substring buf c.body i (j - i + 1);
              walk (j + 1)))
    else (
      Buffer.add_char buf c.body.[i];
      walk (i + 1))
  in
  walk 0;
  { c with body = Buffer.contents buf }

type outcome =
  | Holds
  | Fails of string list
  | Ill_formed of string

(* Outcome of evaluating a body; [eval_in] closes over how (cached,
   planned handle for [check], raw-AST walk for [check_naive]) so the two
   paths can only differ through the parse cache and planner under test. *)
let outcome_of m c eval_in =
  match c.context with
      | None -> (
          match eval_in Env.empty with
          | Value.V_bool true -> Holds
          | Value.V_bool false | Value.V_undefined -> Fails []
          | v ->
              Ill_formed
                (Printf.sprintf "%s: constraint evaluated to non-Boolean %s"
                   c.name (Value.type_name v))
          | exception Eval.Eval_error msg ->
              Ill_formed (Printf.sprintf "%s: %s" c.name msg))
      | Some metaclass -> (
          match Meta.all_instances m metaclass with
          | None ->
              Ill_formed
                (Printf.sprintf "%s: unknown context metaclass %s" c.name
                   metaclass)
          | Some instances -> (
              let ids =
                match Value.items instances with Some xs -> xs | None -> []
              in
              let violating =
                List.filter_map
                  (fun v ->
                    match v with
                    | Value.V_elem id -> (
                        let env = Env.with_self v Env.empty in
                        match eval_in env with
                        | Value.V_bool true -> None
                        | _ -> Some (Mof.Query.qualified_name m id))
                    | _ -> None)
                  ids
              in
              match violating with
              | [] -> Holds
              | _ -> Fails violating)
          | exception Eval.Eval_error msg ->
              Ill_formed (Printf.sprintf "%s: %s" c.name msg))

(* The production path: memoized parse + planner rewrite. *)
let check m c =
  match Compile.compile c.body with
  | Error msg -> Ill_formed (Printf.sprintf "%s: %s" c.name msg)
  | Ok compiled -> outcome_of m c (fun env -> Eval.eval_parsed m env compiled)

(* The baseline the [ocl] differential oracle compares against: a fresh
   parse (no memo table) and the raw unplanned AST. *)
let check_naive m c =
  match Parser.parse_opt c.body with
  | Error msg -> Ill_formed (Printf.sprintf "%s: %s" c.name msg)
  | Ok expr -> outcome_of m c (fun env -> Eval.eval m env expr)

let check m c =
  Obs.span ~cat:"ocl" "ocl.check"
    ~args:[ ("constraint", Obs.Event.V_string c.name) ]
  @@ fun () ->
  let outcome =
    try check m c with Eval.Eval_error msg ->
      Ill_formed (Printf.sprintf "%s: %s" c.name msg)
  in
  (match outcome with
  | Holds -> Obs.incr "ocl.check.holds" []
  | Fails _ -> Obs.incr "ocl.check.fails" []
  | Ill_formed _ -> Obs.incr "ocl.check.ill_formed" []);
  outcome

let holds m c = check m c = Holds

let pp_outcome ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Fails [] -> Format.pp_print_string ppf "fails"
  | Fails subjects ->
      Format.fprintf ppf "fails for %s" (String.concat ", " subjects)
  | Ill_formed msg -> Format.fprintf ppf "ill-formed: %s" msg
