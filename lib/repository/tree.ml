(* A big-endian Patricia trie over {!Mof.Id.Bits}, the arithmetic
   {!Mof.Id.Set} branches on too. Keys are non-negative, so the keys of a
   left subtree are all smaller than those of its right sibling. Empty
   appears only as a whole trie, never as a branch's child. *)
open Mof.Id.Bits

type t =
  | Empty
  | Leaf of { key : int; digest : Store.digest }
  | Branch of { prefix : int; bit : int; left : t; right : t; size : int }

let empty = Empty

let cardinal = function Empty -> 0 | Leaf _ -> 1 | Branch b -> b.size

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

let bindings t =
  let rec go t acc =
    match t with
    | Empty -> acc
    | Leaf l -> (Mof.Id.of_int l.key, l.digest) :: acc
    | Branch b -> go b.left (go b.right acc)
  in
  go t []

(* --- diff: both tries in step, skipping what they share ---------------- *)

(* Each subtree returns its own added, removed and modified sets, and a
   branch joins its two halves with [Mof.Id.Set.union]. Both tries branch
   on the bits the sets branch on, so the halves' ids lie on either side of
   the branch's bit and every union joins two sets under one new branch.
   Where neither half differs, the shared empty diff comes back physically,
   so identical subtrees allocate nothing. *)
let halves (l : Mof.Diff.t) (r : Mof.Diff.t) =
  if l == Mof.Diff.empty then r
  else if r == Mof.Diff.empty then l
  else
    {
      added = Mof.Id.Set.union l.added r.added;
      removed = Mof.Id.Set.union l.removed r.removed;
      modified = Mof.Id.Set.union l.modified r.modified;
    }

let one key = Mof.Id.Set.singleton (Mof.Id.of_int key)

let rec keys = function
  | Empty -> Mof.Id.Set.empty
  | Leaf l -> one l.key
  | Branch b -> Mof.Id.Set.union (keys b.left) (keys b.right)

let only_added t = { Mof.Diff.empty with added = keys t }
let only_removed t = { Mof.Diff.empty with removed = keys t }

(* Where one side's keys all fall under one child of a branch on the other
   side, the other child holds only keys the first side lacks. *)
let rec diff a b =
  if a == b then Mof.Diff.empty
  else
    match (a, b) with
    | Empty, t -> only_added t
    | t, Empty -> only_removed t
    | Leaf x, Leaf y ->
        if x.key <> y.key then
          { Mof.Diff.empty with added = one y.key; removed = one x.key }
        else if String.equal x.digest y.digest then Mof.Diff.empty
        else { Mof.Diff.empty with modified = one x.key }
    | Leaf x, Branch _ -> under_b x.key a b
    | Branch _, Leaf y -> under_a y.key a b
    | Branch x, Branch y ->
        if x.bit = y.bit && x.prefix = y.prefix then
          halves (diff x.left y.left) (diff x.right y.right)
        else if higher x.bit y.bit then under_a y.prefix a b
        else under_b x.prefix a b

(* [b], whose keys all share [k] above a lower bit than branch [a]'s, falls
   under one child of [a] or under neither; [under_b] is the mirror case. *)
and under_a k a b =
  match a with
  | Branch x when matches k ~prefix:x.prefix ~bit:x.bit ->
      if goes_left k x.bit then halves (diff x.left b) (only_removed x.right)
      else halves (only_removed x.left) (diff x.right b)
  | _ -> { Mof.Diff.empty with added = keys b; removed = keys a }

and under_b k a b =
  match b with
  | Branch y when matches k ~prefix:y.prefix ~bit:y.bit ->
      if goes_left k y.bit then halves (diff a y.left) (only_added y.right)
      else halves (only_added y.left) (diff a y.right)
  | _ -> { Mof.Diff.empty with added = keys b; removed = keys a }
