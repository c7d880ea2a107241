type ptype =
  | P_string
  | P_int
  | P_bool
  | P_ident
  | P_enum of string list
  | P_list of ptype

let rec ptype_to_string = function
  | P_string -> "string"
  | P_int -> "int"
  | P_bool -> "bool"
  | P_ident -> "ident"
  | P_enum cases -> "enum(" ^ String.concat "|" cases ^ ")"
  | P_list t -> "list(" ^ ptype_to_string t ^ ")"

type value =
  | V_string of string
  | V_int of int
  | V_bool of bool
  | V_ident of string
  | V_list of value list

let rec value_to_string = function
  | V_string s -> "\"" ^ s ^ "\""
  | V_int n -> string_of_int n
  | V_bool b -> string_of_bool b
  | V_ident s -> s
  | V_list vs -> "[" ^ String.concat ", " (List.map value_to_string vs) ^ "]"

let rec value_conforms v t =
  match (v, t) with
  | (V_string _ | V_ident _), (P_string | P_ident) -> true
  | (V_string s | V_ident s), P_enum cases -> List.mem s cases
  | V_int _, P_int -> true
  | V_bool _, P_bool -> true
  | V_list vs, P_list t -> List.for_all (fun v -> value_conforms v t) vs
  | _, _ -> false

type decl = {
  pname : string;
  ptype : ptype;
  doc : string;
  required : bool;
  default : value option;
}

let decl ?(doc = "") ?required ?default pname ptype =
  let required =
    match required with Some r -> r | None -> default = None
  in
  { pname; ptype; doc; required; default }

type set = {
  decls : decl list;
  assigned : (string * value) list;  (* declaration order *)
}

let bindings s = s.assigned

type problem =
  | Missing of string
  | Unknown of string
  | Type_mismatch of string * ptype * value

let pp_problem ppf = function
  | Missing name -> Format.fprintf ppf "required parameter %s is not assigned" name
  | Unknown name -> Format.fprintf ppf "unknown parameter %s" name
  | Type_mismatch (name, t, v) ->
      Format.fprintf ppf "parameter %s expects %s, got %s" name
        (ptype_to_string t) (value_to_string v)

let build decls assignments =
  let unknown =
    List.filter_map
      (fun (name, _) ->
        if List.exists (fun d -> String.equal d.pname name) decls then None
        else Some (Unknown name))
      assignments
  in
  let problems, assigned =
    List.fold_left
      (fun (problems, assigned) d ->
        match List.assoc_opt d.pname assignments with
        | Some v ->
            if value_conforms v d.ptype then
              (problems, (d.pname, v) :: assigned)
            else (Type_mismatch (d.pname, d.ptype, v) :: problems, assigned)
        | None -> (
            match d.default with
            | Some v -> (problems, (d.pname, v) :: assigned)
            | None ->
                if d.required then (Missing d.pname :: problems, assigned)
                else (problems, assigned)))
      ([], []) decls
  in
  match List.rev problems @ unknown with
  | [] -> Ok { decls; assigned = List.rev assigned }
  | problems -> Error problems

let find s name = List.assoc_opt name s.assigned

let get s name =
  match find s name with Some v -> v | None -> raise Not_found

let get_string s name =
  match get s name with
  | V_string v | V_ident v -> v
  | v ->
      invalid_arg
        (Printf.sprintf "parameter %s is not a string: %s" name
           (value_to_string v))

let get_int s name =
  match get s name with
  | V_int n -> n
  | v ->
      invalid_arg
        (Printf.sprintf "parameter %s is not an int: %s" name (value_to_string v))

let get_names s name =
  match get s name with
  | V_list vs ->
      List.map
        (function
          | V_string n | V_ident n -> n
          | v ->
              invalid_arg
                (Printf.sprintf "parameter %s contains a non-name: %s" name
                   (value_to_string v)))
        vs
  | V_string n | V_ident n -> [ n ]
  | v ->
      invalid_arg
        (Printf.sprintf "parameter %s is not a name list: %s" name
           (value_to_string v))
