type t = {
  gmt : Gmt.t;
  params : Params.set;
}

let specialize gmt assignments =
  match Params.build gmt.Gmt.formals assignments with
  | Ok params -> Ok { gmt; params }
  | Error problems -> Error problems

let specialize_exn gmt assignments =
  match specialize gmt assignments with
  | Ok t -> t
  | Error problems ->
      invalid_arg
        (Format.asprintf "%s: %a" gmt.Gmt.name
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
              Params.pp_problem)
           problems)

let name t =
  let values =
    List.map
      (fun (_, v) -> Params.value_to_string v)
      (Params.bindings t.params)
  in
  t.gmt.Gmt.name ^ "<" ^ String.concat ", " values ^ ">"

let concern t = t.gmt.Gmt.concern

let rec ocl_value = function
  | Params.V_string s | Params.V_ident s -> Ocl.Value.V_string s
  | Params.V_int n -> Ocl.Value.V_int n
  | Params.V_bool b -> Ocl.Value.V_bool b
  | Params.V_list vs -> Ocl.Value.set (List.map ocl_value vs)

let env t =
  Ocl.Env.of_bindings
    (List.map
       (fun (name, v) -> (Gmt.variable name, ocl_value v))
       (Params.bindings t.params))

let rewrite t model = t.gmt.Gmt.rewrite t.params model
