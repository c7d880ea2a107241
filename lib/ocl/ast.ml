type collection_kind =
  | Ck_set
  | Ck_sequence
  | Ck_bag

let collection_kind_name = function
  | Ck_set -> "Set"
  | Ck_sequence -> "Sequence"
  | Ck_bag -> "Bag"

type binop =
  | Op_implies
  | Op_or
  | Op_xor
  | Op_and
  | Op_eq
  | Op_neq
  | Op_lt
  | Op_gt
  | Op_le
  | Op_ge
  | Op_add
  | Op_sub
  | Op_mul
  | Op_div
  | Op_idiv
  | Op_mod

let binop_name = function
  | Op_implies -> "implies"
  | Op_or -> "or"
  | Op_xor -> "xor"
  | Op_and -> "and"
  | Op_eq -> "="
  | Op_neq -> "<>"
  | Op_lt -> "<"
  | Op_gt -> ">"
  | Op_le -> "<="
  | Op_ge -> ">="
  | Op_add -> "+"
  | Op_sub -> "-"
  | Op_mul -> "*"
  | Op_div -> "/"
  | Op_idiv -> "div"
  | Op_mod -> "mod"

type t =
  | E_int of int
  | E_real of float
  | E_string of string
  | E_bool of bool
  | E_self
  | E_var of string
  | E_collection of collection_kind * t list
  | E_if of t * t * t
  | E_let of string * t * t
  | E_binop of binop * t * t
  | E_not of t
  | E_neg of t
  | E_prop of t * string
  | E_call of t * string * t list
  | E_coll_op of t * string * t list
  | E_iter of t * string * string list * t
  | E_iterate of t * string * string * t * t
  | E_probe_exists_name of string * t * t
  | E_probe_select_name of string * t * t
  | E_probe_forall_guard of string * t * string * t * t

let iterator_names =
  [
    "forAll";
    "exists";
    "select";
    "reject";
    "collect";
    "one";
    "any";
    "isUnique";
    "sortedBy";
    "closure";
  ]

let rec pp ppf e =
  let pp_args ppf args =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      pp ppf args
  in
  match e with
  | E_int n -> Format.pp_print_int ppf n
  | E_real f -> Format.fprintf ppf "%g" f
  | E_string s -> Format.fprintf ppf "'%s'" s
  | E_bool b -> Format.pp_print_bool ppf b
  | E_self -> Format.pp_print_string ppf "self"
  | E_var v -> Format.pp_print_string ppf v
  | E_collection (ck, items) ->
      Format.fprintf ppf "%s{%a}" (collection_kind_name ck) pp_args items
  | E_if (c, t, f) ->
      Format.fprintf ppf "(if %a then %a else %a endif)" pp c pp t pp f
  | E_let (v, bound, body) ->
      Format.fprintf ppf "(let %s = %a in %a)" v pp bound pp body
  | E_binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | E_not e -> Format.fprintf ppf "(not %a)" pp e
  | E_neg e -> Format.fprintf ppf "(-%a)" pp e
  | E_prop (e, name) -> Format.fprintf ppf "%a.%s" pp e name
  | E_call (e, name, args) -> Format.fprintf ppf "%a.%s(%a)" pp e name pp_args args
  | E_coll_op (e, name, args) ->
      Format.fprintf ppf "%a->%s(%a)" pp e name pp_args args
  | E_iter (e, name, vars, body) ->
      Format.fprintf ppf "%a->%s(%s | %a)" pp e name (String.concat ", " vars)
        pp body
  | E_iterate (e, v, acc, init, body) ->
      Format.fprintf ppf "%a->iterate(%s; %s = %a | %a)" pp e v acc pp init pp
        body
  | E_probe_exists_name (_, _, orig)
  | E_probe_select_name (_, _, orig)
  | E_probe_forall_guard (_, _, _, _, orig) ->
      (* planner nodes render as the surface syntax they were derived
         from, so reproducers and error messages never leak plan IR *)
      pp ppf orig

let to_string e = Format.asprintf "%a" pp e

let rec fold_vars f e acc =
  let fold_list es acc = List.fold_left (fun acc e -> fold_vars f e acc) acc es in
  match e with
  | E_int _ | E_real _ | E_string _ | E_bool _ | E_self -> acc
  | E_var v -> f v acc
  | E_collection (_, items) -> fold_list items acc
  | E_if (c, t, e') -> fold_vars f e' (fold_vars f t (fold_vars f c acc))
  | E_let (v, bound, body) -> fold_vars f body (f v (fold_vars f bound acc))
  | E_binop (_, a, b) -> fold_vars f b (fold_vars f a acc)
  | E_not e' | E_neg e' | E_prop (e', _) -> fold_vars f e' acc
  | E_call (e', _, args) | E_coll_op (e', _, args) ->
      fold_list args (fold_vars f e' acc)
  | E_iter (e', _, vars, body) ->
      fold_vars f body (List.fold_left (fun acc v -> f v acc) (fold_vars f e' acc) vars)
  | E_iterate (e', v, acc_var, init, body) ->
      fold_vars f body (f acc_var (f v (fold_vars f init (fold_vars f e' acc))))
  | E_probe_exists_name (_, _, orig)
  | E_probe_select_name (_, _, orig)
  | E_probe_forall_guard (_, _, _, _, orig) ->
      fold_vars f orig acc
