type t =
  | V_bool of bool
  | V_int of int
  | V_real of float
  | V_string of string
  | V_elem of Mof.Id.t
  | V_set of t list
  | V_seq of t list
  | V_bag of t list
  | V_undefined

let tag_rank = function
  | V_undefined -> 0
  | V_bool _ -> 1
  | V_int _ | V_real _ -> 2
  | V_string _ -> 3
  | V_elem _ -> 4
  | V_set _ -> 5
  | V_seq _ -> 6
  | V_bag _ -> 7

let as_float = function
  | V_int n -> Some (float_of_int n)
  | V_real f -> Some f
  | _ -> None

let rec compare a b =
  match (as_float a, as_float b) with
  | Some x, Some y -> Float.compare x y
  | _, _ -> (
      let ra = tag_rank a and rb = tag_rank b in
      if ra <> rb then Int.compare ra rb
      else
        match (a, b) with
        | V_undefined, V_undefined -> 0
        | V_bool x, V_bool y -> Bool.compare x y
        | V_string x, V_string y -> String.compare x y
        | V_elem x, V_elem y -> Mof.Id.compare x y
        | V_set xs, V_set ys | V_seq xs, V_seq ys | V_bag xs, V_bag ys ->
            List.compare compare xs ys
        | _, _ -> assert false)

let equal a b = compare a b = 0

let sort_values items = List.sort compare items

let dedup items =
  let rec walk = function
    | [] -> []
    | [ x ] -> [ x ]
    | x :: (y :: _ as rest) -> if equal x y then walk rest else x :: walk rest
  in
  walk items

let set items = V_set (dedup (sort_values items))
let seq items = V_seq items
let bag items = V_bag (sort_values items)
let of_string s = V_string s

let items = function
  | V_set xs | V_seq xs | V_bag xs -> Some xs
  | V_bool _ | V_int _ | V_real _ | V_string _ | V_elem _ | V_undefined -> None

let type_name = function
  | V_bool _ -> "Boolean"
  | V_int _ -> "Integer"
  | V_real _ -> "Real"
  | V_string _ -> "String"
  | V_elem _ -> "Element"
  | V_set _ -> "Set"
  | V_seq _ -> "Sequence"
  | V_bag _ -> "Bag"
  | V_undefined -> "OclUndefined"

let rec pp ppf v =
  let pp_items name xs =
    Format.fprintf ppf "%s{%a}" name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp)
      xs
  in
  match v with
  | V_bool b -> Format.pp_print_bool ppf b
  | V_int n -> Format.pp_print_int ppf n
  | V_real f -> Format.fprintf ppf "%g" f
  | V_string s -> Format.fprintf ppf "'%s'" s
  | V_elem id -> Format.fprintf ppf "@@%s" (Mof.Id.to_string id)
  | V_set xs -> pp_items "Set" xs
  | V_seq xs -> pp_items "Sequence" xs
  | V_bag xs -> pp_items "Bag" xs
  | V_undefined -> Format.pp_print_string ppf "OclUndefined"

let to_string v = Format.asprintf "%a" pp v
