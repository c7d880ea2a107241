(* Time and allocation sources for the observability layer.

   The repo has no opam dependency for a true CLOCK_MONOTONIC (only mdbench
   links bechamel's), so timestamps come from the wall clock in integer
   nanoseconds, clamped to be non-decreasing: span arithmetic never sees
   time move backwards, which is all the trace formats require. *)

let last = ref 0L

let now_ns () =
  let t = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  let t = if Int64.compare t !last < 0 then !last else t in
  last := t;
  t

(* Total bytes allocated on the OCaml heaps since program start; deltas of
   this across a span give its allocation cost. Reads GC counters only —
   no collection is triggered. *)
let allocated_bytes () = Gc.allocated_bytes ()
