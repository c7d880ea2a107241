(* Machine-speed reference.

   The hosts this bench runs on share cores and memory with other tenants,
   and their speed drifts by 20-40% (up to 2x on allocation-heavy code)
   over seconds. A fixed reference computation, timed between ops
   throughout the loop, measures that drift; op times are scaled by
   [nominal_ns / reference_ns] of the nearest samples, so every reported
   time is "at the nominal speed of the reference".

   The reference is bench code over Stdlib only, so no change to lib/ can
   move it — except a change to the GC settings, since it allocates. It
   allocates on purpose: short-lived lists and hash tables slow down under
   contention the way the library's allocation-heavy code does, where an
   allocation-free pointer walk or arithmetic loop tracked less than half
   of the drift. *)

(* About the reference's time on a quiet 2.0 GHz Xeon VM. *)
let nominal_ns = 550_000.

let reference () =
  let acc = ref 0 in
  for r = 1 to 5 do
    let l = List.init 3000 (fun i -> (i, i * r)) in
    acc := List.fold_left (fun acc (a, b) -> acc + a + b) !acc l;
    let t = Hashtbl.create 64 in
    for i = 0 to 999 do
      Hashtbl.replace t (i * 7919) i
    done;
    acc := !acc + Hashtbl.length t
  done;
  Sys.opaque_identity !acc

let sample () =
  let t0 = Layer.now_ns () in
  ignore (reference ());
  float (Layer.now_ns () - t0)
