exception Rewrite_error of string

let rewrite_error fmt =
  Format.kasprintf (fun s -> raise (Rewrite_error s)) fmt

type t = {
  name : string;
  concern : string;
  description : string;
  formals : Params.decl list;
  preconditions : Ocl.Constraint_.t list;
  postconditions : Ocl.Constraint_.t list;
  rewrite : Params.set -> Mof.Model.t -> Mof.Model.t;
}

let make ?(description = "") ?(preconditions = []) ?(postconditions = []) ~name
    ~concern ~formals rewrite =
  { name; concern; description; formals; preconditions; postconditions; rewrite }

let variable pname = "$" ^ pname ^ "$"

let rec param_type = function
  | Params.P_string | Params.P_ident | Params.P_enum _ -> Ocl.Typecheck.T_string
  | Params.P_int -> Ocl.Typecheck.T_integer
  | Params.P_bool -> Ocl.Typecheck.T_boolean
  | Params.P_list t -> Ocl.Typecheck.T_set (param_type t)

let validate_conditions t =
  let vars =
    List.map
      (fun d -> (variable d.Params.pname, param_type d.Params.ptype))
      t.formals
  in
  let check_one (c : Ocl.Constraint_.t) =
    let where =
      Printf.sprintf "%s: condition %s" t.name c.Ocl.Constraint_.name
    in
    match c.Ocl.Constraint_.ast with
    | Error msg -> [ Printf.sprintf "%s: %s" where msg ]
    | Ok ast ->
        let _, diags =
          Ocl.Typecheck.infer ?self_type:c.Ocl.Constraint_.context ~vars ast
        in
        List.map
          (fun d ->
            Format.asprintf "%s: %a" where Ocl.Typecheck.pp_diagnostic d)
          diags
  in
  List.concat_map check_one (t.preconditions @ t.postconditions)
