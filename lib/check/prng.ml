(* splitmix64 (Steele, Lea, Flood 2014): tiny state, good equidistribution,
   and trivially splittable — exactly what deterministic replay needs. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let next_of state =
  let s = Int64.add state golden in
  let z = s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, Int64.logxor z (Int64.shift_right_logical z 31))

let make seed = { state = seed }

let bits64 g =
  let state, z = next_of g.state in
  g.state <- state;
  z

let mix seed salt =
  let _, z = next_of (Int64.add seed (Int64.mul (Int64.of_int salt) golden)) in
  z

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* mask to non-negative, then reduce; bias is irrelevant at fuzz bounds *)
  let v = Int64.to_int (Int64.logand (bits64 g) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let range g lo hi =
  if hi < lo then invalid_arg "Prng.range: empty range";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (bits64 g) 1L = 1L

let chance g num den = int g den < num

let choose g xs =
  match xs with
  | [] -> invalid_arg "Prng.choose: empty list"
  | xs -> List.nth xs (int g (List.length xs))

let shuffle g xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
