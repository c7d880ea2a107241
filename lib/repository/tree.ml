(* A big-endian Patricia trie. Keys are non-negative, so every branching
   bit is a positive power of two, bits compare as plain ints, and the keys
   of a left subtree are all smaller than those of its right sibling. Empty
   appears only as a whole trie, never as a branch's child. *)
type t =
  | Empty
  | Leaf of { key : int; digest : Store.digest }
  | Branch of { prefix : int; bit : int; left : t; right : t; size : int }

let empty = Empty

let cardinal = function Empty -> 0 | Leaf _ -> 1 | Branch b -> b.size

(* [key] with its bits at and below [bit] cleared: the part a branch on
   [bit] shares among all its keys. *)
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

let branch prefix bit left right =
  Branch { prefix; bit; left; right; size = cardinal left + cardinal right }

(* Two non-empty tries whose keys first disagree above both of them, at
   the highest bit where [k0] and [k1] (a key or prefix of each) differ. *)
let join k0 t0 k1 t1 =
  let bit = highest_bit (k0 lxor k1) in
  if goes_left k0 bit then branch (mask k0 bit) bit t0 t1
  else branch (mask k0 bit) bit t1 t0

let rec find_key key = function
  | Empty -> None
  | Leaf l -> if l.key = key then Some l.digest else None
  | Branch b -> find_key key (if goes_left key b.bit then b.left else b.right)

let find_opt id t = find_key (Mof.Id.to_int id) t
let mem id t = Option.is_some (find_opt id t)

let add id digest t =
  let key = Mof.Id.to_int id in
  if key < 0 then invalid_arg ("Repository.Tree.add: negative id " ^ string_of_int key);
  let leaf = Leaf { key; digest } in
  let rec go = function
    | Empty -> leaf
    | Leaf l as t -> if l.key = key then leaf else join key leaf l.key t
    | Branch b as t ->
        if not (matches key ~prefix:b.prefix ~bit:b.bit) then join key leaf b.prefix t
        else if goes_left key b.bit then branch b.prefix b.bit (go b.left) b.right
        else branch b.prefix b.bit b.left (go b.right)
  in
  go t

let remove id t =
  let key = Mof.Id.to_int id in
  let rec go = function
    | Empty -> Empty
    | Leaf l as t -> if l.key = key then Empty else t
    | Branch b as t ->
        if not (matches key ~prefix:b.prefix ~bit:b.bit) then t
        else if goes_left key b.bit then
          match go b.left with
          | Empty -> b.right
          | left -> if left == b.left then t else branch b.prefix b.bit left b.right
        else
          match go b.right with
          | Empty -> b.left
          | right -> if right == b.right then t else branch b.prefix b.bit b.left right
  in
  go t

let rec max_binding_opt = function
  | Empty -> None
  | Leaf l -> Some (Mof.Id.of_int l.key, l.digest)
  | Branch b -> max_binding_opt b.right

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf l -> f (Mof.Id.of_int l.key) l.digest acc
  | Branch b -> fold f b.right (fold f b.left acc)

let bindings t =
  let rec go t acc =
    match t with
    | Empty -> acc
    | Leaf l -> (Mof.Id.of_int l.key, l.digest) :: acc
    | Branch b -> go b.left (go b.right acc)
  in
  go t []

(* --- diff: both tries in step, skipping what they share ---------------- *)

let add_id key set = Mof.Id.Set.add (Mof.Id.of_int key) set
let added key (d : Mof.Diff.t) = { d with added = add_id key d.added }
let removed key (d : Mof.Diff.t) = { d with removed = add_id key d.removed }

let rec all mark t d =
  match t with
  | Empty -> d
  | Leaf l -> mark l.key d
  | Branch b -> all mark b.left (all mark b.right d)

(* Where one side's keys all fall under one child of a branch on the other
   side, the other child holds only keys the first side lacks. *)
let rec diff_into a b d =
  if a == b then d
  else
    match (a, b) with
    | Empty, t -> all added t d
    | t, Empty -> all removed t d
    | Leaf x, Leaf y ->
        if x.key <> y.key then removed x.key (added y.key d)
        else if String.equal x.digest y.digest then d
        else { d with modified = add_id x.key d.modified }
    | Leaf x, Branch _ -> under_b x.key a b d
    | Branch _, Leaf y -> under_a y.key a b d
    | Branch x, Branch y ->
        if x.bit = y.bit && x.prefix = y.prefix then
          diff_into x.left y.left (diff_into x.right y.right d)
        else if x.bit > y.bit then under_a y.prefix a b d
        else under_b x.prefix a b d

(* [b], whose keys all share [k] above a lower bit than branch [a]'s, falls
   under one child of [a] or under neither; [under_b] is the mirror case. *)
and under_a k a b d =
  match a with
  | Branch x when matches k ~prefix:x.prefix ~bit:x.bit ->
      if goes_left k x.bit then diff_into x.left b (all removed x.right d)
      else diff_into x.right b (all removed x.left d)
  | _ -> all removed a (all added b d)

and under_b k a b d =
  match b with
  | Branch y when matches k ~prefix:y.prefix ~bit:y.bit ->
      if goes_left k y.bit then diff_into a y.left (all added y.right d)
      else diff_into a y.right (all added y.left d)
  | _ -> all removed a (all added b d)

let diff a b = diff_into a b Mof.Diff.empty
