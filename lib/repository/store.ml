(* A big-endian Patricia trie over {!Mof.Id.Bits}, keyed by the leading 62
   bits of each digest. Keys are non-negative, so a left subtree's keys lie
   below its right sibling's, and a key orders digests as their leading
   bytes do: a left-to-right walk meets digests in ascending order. Empty
   appears only as a whole trie, never as a branch's child.

   Each object keeps its canonical bytes alongside the element: the digest
   was computed from them, the snapshot writes them verbatim, and [bytes]
   accounts them — recomputing the rendering on every save would triple the
   encode work for no memory win (the bytes are a fraction of the element). *)
open Mof.Id.Bits

type digest = string

type node =
  | Empty
  | Leaf of { key : int; digest : digest; element : Mof.Element.t; bytes : string }
  | Bucket of { key : int; objects : (digest * Mof.Element.t * string) list }
      (** two or more objects whose digests share [key], in digest order *)
  | Branch of { prefix : int; bit : int; left : node; right : node }

type t = { objects : node; count : int; total_bytes : int }

let empty = { objects = Empty; count = 0; total_bytes = 0 }

let key_of digest =
  Int64.to_int (Int64.shift_right_logical (String.get_int64_be digest 0) 2)

(* Two non-empty tries whose keys first disagree above both of them, at
   the highest bit where [k0] and [k1] (a key or prefix of each) differ. *)
let join k0 t0 k1 t1 =
  let bit = highest_bit (k0 lxor k1) in
  if goes_left k0 bit then Branch { prefix = mask k0 bit; bit; left = t0; right = t1 }
  else Branch { prefix = mask k0 bit; bit; left = t1; right = t0 }

let rec insert_sorted ((d, _, _) as o) = function
  | ((d', _, _) as o') :: rest when String.compare d' d < 0 -> o' :: insert_sorted o rest
  | rest -> o :: rest

let add_canonical t digest element bytes =
  let key = key_of digest in
  let leaf = Leaf { key; digest; element; bytes } in
  let rec go = function
    | Empty -> leaf
    | Leaf l as node ->
        if l.key <> key then join key leaf l.key node
        else if String.equal l.digest digest then node
        else
          let first = (l.digest, l.element, l.bytes) in
          Bucket { key; objects = insert_sorted (digest, element, bytes) [ first ] }
    | Bucket b as node ->
        if b.key <> key then join key leaf b.key node
        else if List.exists (fun (d, _, _) -> String.equal d digest) b.objects then node
        else Bucket { key; objects = insert_sorted (digest, element, bytes) b.objects }
    | Branch b as node ->
        if not (matches key ~prefix:b.prefix ~bit:b.bit) then join key leaf b.prefix node
        else if goes_left key b.bit then
          let left = go b.left in
          if left == b.left then node else Branch { b with left }
        else
          let right = go b.right in
          if right == b.right then node else Branch { b with right }
  in
  let objects = go t.objects in
  if objects == t.objects then t
  else { objects; count = t.count + 1; total_bytes = t.total_bytes + String.length bytes }

let add t e =
  let bytes = Mof.Canon.element_bytes e in
  let digest = Digest.string bytes in
  (add_canonical t digest e bytes, digest)

let find_exn t digest =
  let key = key_of digest in
  let rec go = function
    | Leaf l when String.equal l.digest digest -> Some l.element
    | Bucket b ->
        List.find_map (fun (d, e, _) -> if String.equal d digest then Some e else None) b.objects
    | Branch b -> go (if goes_left key b.bit then b.left else b.right)
    | Empty | Leaf _ -> None
  in
  match go t.objects with
  | Some e -> e
  | None ->
      invalid_arg
        ("Repository.Store.find_exn: unknown digest " ^ Mof.Canon.digest_hex digest)

let count t = t.count
let bytes t = t.total_bytes

let fold f t init =
  let rec go node acc =
    match node with
    | Empty -> acc
    | Leaf l -> f l.digest l.element l.bytes acc
    | Bucket b -> List.fold_left (fun acc (d, e, bytes) -> f d e bytes acc) acc b.objects
    | Branch b -> go b.right (go b.left acc)
  in
  go t.objects init
