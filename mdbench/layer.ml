(* The bench's clock and its own layer spans.

   Spans wrap the calls the bench makes into each library layer; nothing
   inside lib/ is instrumented. Spans are flat: within one op they never
   nest, so a span's self time is its duration, and the op's time minus
   the sum of its spans is the unattributed remainder. Only ops the harness
   marks as traced record anything; an untraced op pays one flag test per
   call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  name : string;
  mutable ns : int;
  mutable words : float;  (** minor-heap words allocated inside the span *)
}

(* Every layer the workloads call, in pipeline order. A layer a workload
   never calls reports 0. *)
let all =
  List.map
    (fun name -> { name; ns = 0; words = 0. })
    [
      "xmi.import";
      "core.project_create";
      "core.refine";
      "aspects.generate";
      "code.generate";
      "weaver.weave";
      "interp.run";
      "code.print";
      "xmi.export";
      "repository.save";
      "repository.load";
      "repository.snapshot";
      "mof.edit";
      "repository.commit";
      "repository.model_at";
      "repository.diff_between";
    ]

let get name = List.find (fun l -> l.name = name) all
let tracing = ref false

let span l f =
  if not !tracing then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    l.ns <- l.ns + (t1 - t0);
    l.words <- l.words +. (Gc.minor_words () -. w0);
    v
  end

let total_ns () = List.fold_left (fun acc l -> acc + l.ns) 0 all
