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

(* The two folds recurse directly, arguments through a helper of their own,
   so a walk allocates only what [f] is handed at its nodes. *)
let rec fold_calls f acc e =
  match e with
  | E_null | E_this | E_bool _ | E_int _ | E_double _ | E_string _ | E_name _ ->
      acc
  | E_field (a, _) | E_unary (_, a) | E_cast (_, a) | E_instanceof (a, _) ->
      fold_calls f acc a
  | E_call (recv, name, args) ->
      let acc = match recv with Some r -> fold_calls f acc r | None -> acc in
      f (fold_calls_args f acc args) (recv, name, args)
  | E_new (_, args) -> fold_calls_args f acc args
  | E_binary (_, a, b) | E_assign (a, b) -> fold_calls f (fold_calls f acc a) b

and fold_calls_args f acc = function
  | [] -> acc
  | e :: rest -> fold_calls_args f (fold_calls f acc e) rest

let rec fold_assigns f acc e =
  match e with
  | E_null | E_this | E_bool _ | E_int _ | E_double _ | E_string _ | E_name _ ->
      acc
  | E_field (a, _) | E_unary (_, a) | E_cast (_, a) | E_instanceof (a, _) ->
      fold_assigns f acc a
  | E_call (recv, _, args) ->
      let acc = match recv with Some r -> fold_assigns f acc r | None -> acc in
      fold_assigns_args f acc args
  | E_new (_, args) -> fold_assigns_args f acc args
  | E_binary (_, a, b) -> fold_assigns f (fold_assigns f acc a) b
  | E_assign (lhs, rhs) ->
      f (fold_assigns f (fold_assigns f acc lhs) rhs) (lhs, rhs)

and fold_assigns_args f acc = function
  | [] -> acc
  | e :: rest -> fold_assigns_args f (fold_assigns f acc e) rest

(* The [let]s fix left-to-right order where a constructor holds two
   children, so [f] meets the nodes in program order. *)
let map f e =
  let rec go e =
    f
      (match e with
      | E_null | E_this | E_bool _ | E_int _ | E_double _ | E_string _ | E_name _ ->
          e
      | E_field (a, name) -> E_field (go a, name)
      | E_call (recv, name, args) ->
          let recv = Option.map go recv in
          E_call (recv, name, List.map go args)
      | E_new (cls, args) -> E_new (cls, List.map go args)
      | E_binary (op, a, b) ->
          let a = go a in
          E_binary (op, a, go b)
      | E_unary (op, a) -> E_unary (op, go a)
      | E_assign (lhs, rhs) ->
          let lhs = go lhs in
          E_assign (lhs, go rhs)
      | E_cast (ty, a) -> E_cast (ty, go a)
      | E_instanceof (a, cls) -> E_instanceof (go a, cls))
  in
  go e
