type t = {
  name : string;
  context : string option;
  body : string;
  ast : (Ast.t, string) result;
  planned : (Ast.t, string) result;
}

let make ?context ~name body =
  let ast = Parser.parse_opt body in
  { name; context; body; ast; planned = Result.map Plan.optimize ast }

type outcome =
  | Holds
  | Fails of string list
  | Ill_formed of string

(* Outcome of evaluating one of the body's two ASTs under [env], so
   [check] and [check_naive] can only differ through the planner under
   test. *)
let outcome_of ~env m c ast =
  let ill_formed fmt =
    Printf.ksprintf (fun msg -> Ill_formed (c.name ^ ": " ^ msg)) fmt
  in
  match ast with
  | Error msg -> ill_formed "%s" msg
  | Ok ast -> (
      try
        match c.context with
        | None -> (
            match Eval.eval m env ast with
            | Value.V_bool true -> Holds
            | Value.V_bool false | Value.V_undefined -> Fails []
            | v ->
                ill_formed "constraint evaluated to non-Boolean %s"
                  (Value.type_name v))
        | Some metaclass -> (
            match Meta.all_instances m metaclass with
            | None -> ill_formed "unknown context metaclass %s" metaclass
            | Some instances -> (
                let violating =
                  List.filter_map
                    (fun v ->
                      match v with
                      | Value.V_elem id -> (
                          match Eval.eval m (Env.with_self v env) ast with
                          | Value.V_bool true -> None
                          | _ -> Some (Mof.Query.qualified_name m id))
                      | _ -> None)
                    (Option.value ~default:[] (Value.items instances))
                in
                match violating with [] -> Holds | _ -> Fails violating))
      with Eval.Eval_error msg -> ill_formed "%s" msg)

(* The baseline the [ocl] differential oracle compares against: the raw
   unplanned AST. *)
let check_naive ?(env = Env.empty) m c = outcome_of ~env m c c.ast

let check ?(env = Env.empty) m c =
  Obs.span ~cat:"ocl" "ocl.check"
    ~args:[ ("constraint", Obs.Event.V_string c.name) ]
  @@ fun () ->
  let outcome = outcome_of ~env m c c.planned in
  (match outcome with
  | Holds -> Obs.incr "ocl.check.holds" []
  | Fails _ -> Obs.incr "ocl.check.fails" []
  | Ill_formed _ -> Obs.incr "ocl.check.ill_formed" []);
  outcome

let pp_outcome ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Fails [] -> Format.pp_print_string ppf "fails"
  | Fails subjects ->
      Format.fprintf ppf "fails for %s" (String.concat ", " subjects)
  | Ill_formed msg -> Format.fprintf ppf "ill-formed: %s" msg
