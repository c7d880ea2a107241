type t =
  | Elem of {
      tag : string;
      attrs : (string * string) list;
      children : t list;
    }
  | Text of string

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Elem x, Elem y ->
      String.equal x.tag y.tag
      && List.equal
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
           x.attrs y.attrs
      && List.equal equal x.children y.children
  | _, _ -> false
