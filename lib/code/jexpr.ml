type t =
  | E_null
  | E_this
  | E_bool of bool
  | E_int of int
  | E_double of float
  | E_string of string
  | E_name of string
  | E_field of t * string
  | E_call of t option * string * t list
  | E_new of string * t list
  | E_binary of string * t * t
  | E_unary of string * t
  | E_assign of t * t
  | E_cast of Jtype.t * t
  | E_instanceof of t * string

let rec fold_calls f acc e =
  let recurse acc e = fold_calls f acc e in
  match e with
  | E_null | E_this | E_bool _ | E_int _ | E_double _ | E_string _ | E_name _ ->
      acc
  | E_field (recv, _) -> recurse acc recv
  | E_call (recv, name, args) ->
      let acc = match recv with Some r -> recurse acc r | None -> acc in
      let acc = List.fold_left recurse acc args in
      f acc (recv, name, args)
  | E_new (_, args) -> List.fold_left recurse acc args
  | E_binary (_, a, b) -> recurse (recurse acc a) b
  | E_unary (_, a) -> recurse acc a
  | E_assign (lhs, rhs) -> recurse (recurse acc lhs) rhs
  | E_cast (_, a) -> recurse acc a
  | E_instanceof (a, _) -> recurse acc a
