type t = int

let of_int n = n
let to_int id = id
let to_string id = "e" ^ string_of_int id

let of_string s =
  let len = String.length s in
  if len < 2 || s.[0] <> 'e' then None
  else
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some n when n >= 0 -> Some n
    | Some _ | None -> None

let equal = Int.equal
let compare = Int.compare
let pp ppf id = Format.pp_print_string ppf (to_string id)

module Map = Map.Make (Int)

module Bits = struct
  let mask key bit = key land lnot (bit lor (bit - 1))
  let matches key ~prefix ~bit = mask key bit = prefix
  let goes_left key bit = key land bit = 0

  let highest_bit x =
    let x = x lor (x lsr 1) in
    let x = x lor (x lsr 2) in
    let x = x lor (x lsr 4) in
    let x = x lor (x lsr 8) in
    let x = x lor (x lsr 16) in
    let x = x lor (x lsr 32) in
    x - (x lsr 1)

  (* Powers of two in unsigned order: [min_int - 1] wraps to [max_int]. *)
  let higher b0 b1 = b0 - 1 > b1 - 1
end

(* A big-endian Patricia trie over the bits of [x lxor min_int]: flipping
   the sign bit makes unsigned trie order (a left subtree's keys below its
   right sibling's) the signed order of the elements. Empty appears only as
   a whole set, never as a branch's child, so a set's shape depends only on
   its elements. *)
module Set = struct
  type elt = int

  type t =
    | Empty
    | Leaf of int
    | Branch of { prefix : int; bit : int; left : t; right : t }

  let key x = x lxor min_int
  let elt k = k lxor min_int
  let empty = Empty
  let is_empty = function Empty -> true | Leaf _ | Branch _ -> false
  let singleton x = Leaf (key x)
  let branch prefix bit left right = Branch { prefix; bit; left; right }

  (* Two non-empty tries whose keys first disagree above both of them, at
     the highest bit where [k0] and [k1] (a key or prefix of each) differ. *)
  let join k0 t0 k1 t1 =
    let bit = Bits.highest_bit (k0 lxor k1) in
    if Bits.goes_left k0 bit then branch (Bits.mask k0 bit) bit t0 t1
    else branch (Bits.mask k0 bit) bit t1 t0

  (* Branch [t] on [prefix]/[bit] with children [l0]/[r0] replaced by [l]/[r]:
     [t] itself when neither changed, the other child when one emptied. *)
  let rebuild t prefix bit l0 r0 l r =
    if l == l0 && r == r0 then t
    else
      match (l, r) with
      | Empty, s | s, Empty -> s
      | _ -> branch prefix bit l r

  let rec mem_key k = function
    | Empty -> false
    | Leaf j -> j = k
    | Branch b -> mem_key k (if Bits.goes_left k b.bit then b.left else b.right)

  let mem x s = mem_key (key x) s

  let rec add_key k = function
    | Empty -> Leaf k
    | Leaf j as t -> if j = k then t else join k (Leaf k) j t
    | Branch { prefix; bit; left; right } as t ->
        if not (Bits.matches k ~prefix ~bit) then join k (Leaf k) prefix t
        else if Bits.goes_left k bit then
          let l = add_key k left in
          if l == left then t else branch prefix bit l right
        else
          let r = add_key k right in
          if r == right then t else branch prefix bit left r

  let add x s = add_key (key x) s

  let rec remove_key k = function
    | Empty -> Empty
    | Leaf j as t -> if j = k then Empty else t
    | Branch { prefix; bit; left; right } as t ->
        if not (Bits.matches k ~prefix ~bit) then t
        else if Bits.goes_left k bit then
          rebuild t prefix bit left right (remove_key k left) right
        else rebuild t prefix bit left right left (remove_key k right)

  let remove x s = remove_key (key x) s

  (* The merges below descend both tries in step. Where one trie's keys
     all fall under one child of a branch of the other, only that child
     meets it; where the two share no prefix, they are disjoint and [union]
     joins them under one new branch. Shared subtrees end the descent. The
     symmetric [union] and [inter] swap their arguments so that [s]
     branches at least as high as [t]. *)
  let rec union s t =
    if s == t then s
    else
      match (s, t) with
      | Empty, u | u, Empty -> u
      | Leaf k, u | u, Leaf k -> add_key k u
      | Branch a, Branch b ->
          if a.bit = b.bit && a.prefix = b.prefix then
            let l = union a.left b.left and r = union a.right b.right in
            if l == a.left && r == a.right then s
            else if l == b.left && r == b.right then t
            else branch a.prefix a.bit l r
          else if Bits.higher b.bit a.bit then union t s
          else if not (Bits.matches b.prefix ~prefix:a.prefix ~bit:a.bit) then
            join a.prefix s b.prefix t
          else if Bits.goes_left b.prefix a.bit then
            let l = union a.left t in
            if l == a.left then s else branch a.prefix a.bit l a.right
          else
            let r = union a.right t in
            if r == a.right then s else branch a.prefix a.bit a.left r

  let rec inter s t =
    if s == t then s
    else
      match (s, t) with
      | Empty, _ | _, Empty -> Empty
      | Leaf k, u -> if mem_key k u then s else Empty
      | u, Leaf k -> if mem_key k u then t else Empty
      | Branch a, Branch b ->
          if a.bit = b.bit && a.prefix = b.prefix then
            let l = inter a.left b.left and r = inter a.right b.right in
            if l == b.left && r == b.right then t
            else rebuild s a.prefix a.bit a.left a.right l r
          else if Bits.higher b.bit a.bit then inter t s
          else if not (Bits.matches b.prefix ~prefix:a.prefix ~bit:a.bit) then Empty
          else inter (if Bits.goes_left b.prefix a.bit then a.left else a.right) t

  let rec diff s t =
    if s == t then Empty
    else
      match (s, t) with
      | Empty, _ -> Empty
      | _, Empty -> s
      | Leaf k, _ -> if mem_key k t then Empty else s
      | _, Leaf k -> remove_key k s
      | Branch a, Branch b ->
          if a.bit = b.bit && a.prefix = b.prefix then
            rebuild s a.prefix a.bit a.left a.right (diff a.left b.left)
              (diff a.right b.right)
          else if Bits.higher a.bit b.bit then
            if not (Bits.matches b.prefix ~prefix:a.prefix ~bit:a.bit) then s
            else if Bits.goes_left b.prefix a.bit then
              rebuild s a.prefix a.bit a.left a.right (diff a.left t) a.right
            else rebuild s a.prefix a.bit a.left a.right a.left (diff a.right t)
          else if not (Bits.matches a.prefix ~prefix:b.prefix ~bit:b.bit) then s
          else diff s (if Bits.goes_left a.prefix b.bit then b.left else b.right)

  let rec equal s t =
    s == t
    ||
    match (s, t) with
    | Leaf j, Leaf k -> j = k
    | Branch a, Branch b ->
        a.bit = b.bit && a.prefix = b.prefix && equal a.left b.left
        && equal a.right b.right
    | _ -> false

  let rec fold f s acc =
    match s with
    | Empty -> acc
    | Leaf k -> f (elt k) acc
    | Branch b -> fold f b.right (fold f b.left acc)

  let rec filter p = function
    | Empty -> Empty
    | Leaf k as s -> if p (elt k) then s else Empty
    | Branch { prefix; bit; left; right } as s ->
        let l = filter p left in
        let r = filter p right in
        rebuild s prefix bit left right l r

  let rec cardinal = function
    | Empty -> 0
    | Leaf _ -> 1
    | Branch b -> cardinal b.left + cardinal b.right

  let elements s =
    let rec go s acc =
      match s with
      | Empty -> acc
      | Leaf k -> elt k :: acc
      | Branch b -> go b.left (go b.right acc)
    in
    go s []

  let rec min_key = function
    | Empty -> raise Not_found
    | Leaf k -> k
    | Branch b -> min_key b.left

  let rec max_key = function
    | Empty -> raise Not_found
    | Leaf k -> k
    | Branch b -> max_key b.right

  let min_elt s = elt (min_key s)
  let max_elt s = elt (max_key s)
  let min_elt_opt = function Empty -> None | s -> Some (min_elt s)
  let of_list l = List.fold_left (fun s x -> add x s) Empty l
end
