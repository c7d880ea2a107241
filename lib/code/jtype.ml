type t =
  | T_void
  | T_boolean
  | T_int
  | T_double
  | T_string
  | T_named of string
  | T_list of t

let rec to_string = function
  | T_void -> "void"
  | T_boolean -> "boolean"
  | T_int -> "int"
  | T_double -> "double"
  | T_string -> "String"
  | T_named n -> n
  | T_list t -> "List<" ^ to_string t ^ ">"

let default_value_text = function
  | T_void -> None
  | T_boolean -> Some "false"
  | T_int -> Some "0"
  | T_double -> Some "0.0"
  | T_string | T_named _ | T_list _ -> Some "null"

let rec of_datatype m = function
  | Mof.Kind.Dt_void -> T_void
  | Mof.Kind.Dt_boolean -> T_boolean
  | Mof.Kind.Dt_integer -> T_int
  | Mof.Kind.Dt_real -> T_double
  | Mof.Kind.Dt_string -> T_string
  | Mof.Kind.Dt_ref id -> (
      match Mof.Model.find m id with
      | Some e -> T_named e.Mof.Element.name
      | None -> T_named ("Unresolved_" ^ Mof.Id.to_string id))
  | Mof.Kind.Dt_collection inner -> T_list (of_datatype m inner)
