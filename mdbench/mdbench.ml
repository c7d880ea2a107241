(* mdbench — the benchmark of record (see README.md next to this file).

   One invocation per workload runs [reps] repetitions, each in a fresh
   process (inherited major-GC debt otherwise skews later repetitions), and
   reports the median of each metric across them. Each repetition sets up,
   warms up, then runs a closed loop — one client, the next op only after
   the previous one returned — for its share of [--seconds], ending on a
   round boundary. [--trace 1] runs the same loop with the bench's own
   layer spans on a random half of the ops and reports the per-layer
   metrics.

     mdbench.exe --seed 42                  all workloads, bench-results.json
     mdbench.exe --workload W --seed N --seconds S --trace 0|1
                                            one workload; last line is JSON

   Exit status is 1 when any output check failed. *)

let reps = 3

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

let end_to_end =
  [
    m "setup_s" "s";
    m "ops_per_s" "1/s";
    m "op_p50_ms" "ms";
    m "op_p95_ms" "ms";
    m "peak_heap_mb" "MB";
  ]

let per_layer =
  List.map (fun (l : Layer.t) -> m (l.name ^ ".self_pct") "%") Layer.all
  @ [
      m "bench.unattributed_pct" "%";
      m "bench.trace_overhead_pct" "%";
      m "bench.reference_ms" "ms";
      m "bench.raw_op_p50_ms" "ms";
      m "xmi.import.alloc_mb" "MB";
      m "ocl.parse.hit_ratio" "ratio";
      m "ocl.extent.hit_ratio" "ratio";
      m "ocl.plan.index_probe_per_op" "count";
      m "weave.index.probe_ratio" "ratio";
      m "weaver.applications_per_op" "count";
      m "code.woven_kb_per_op" "KB";
      m "repository.snapshot_kb" "KB";
      m "bench.output_kb_per_op" "KB";
      m "interp.calls_per_op" "count";
      m "interp.events_per_call" "count";
      m "gc.minor_per_op" "count";
      m "gc.major_per_op" "count";
      m "gc.alloc_mb_per_op" "MB";
    ]

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let ratio a b = if b = 0. then 0. else a /. b

(* nearest-rank quantile of a sorted array *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile a 0.5

(* ---- one repetition (child process) ------------------------------------- *)

(* A speed-reference sample is taken whenever this much loop time has passed
   since the last one (about 3% of the loop). *)
let reference_every_ns = 20_000_000

type op = { start : int; ns : int; traced : bool }

let alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

(* GC work done inside the reference samples, kept out of the ops' gc.*
   metrics: the words exactly, the collections that ran during a sample
   approximately. *)
type gc_work = { mutable minors : int; mutable majors : int; mutable words : float }

let reference_gc = { minors = 0; majors = 0; words = 0. }

let reference_sample () =
  let s0 = Gc.quick_stat () in
  let ns = Speed.sample () in
  let s1 = Gc.quick_stat () in
  let g = reference_gc in
  g.minors <- g.minors + s1.minor_collections - s0.minor_collections;
  g.majors <- g.majors + s1.major_collections - s0.major_collections;
  g.words <- g.words +. alloc_words s1 -. alloc_words s0;
  (Layer.now_ns (), ns)

let counter name =
  List.fold_left
    (fun acc (r : Obs.Metric.row) -> if r.metric = name then acc +. r.value else acc)
    0. (Obs.Metric.rows ())

(* Scale each op's time to the nominal reference speed, using the median
   of the five reference samples nearest its start. [ops] and [refs] are in
   time order. *)
let scaled ops refs =
  let refs = Array.of_list refs in
  let n = Array.length refs in
  let j = ref 0 in
  List.map
    (fun o ->
      while !j + 1 < n && fst refs.(!j + 1) <= o.start do incr j done;
      let near = List.init (min n 5) (fun k -> snd refs.(max 0 (min (n - 5) (!j - 2)) + k)) in
      float o.ns *. Speed.nominal_ns /. median near)
    ops

let child (w : Workloads.t) ~seed ~seconds ~trace =
  let before = List.init 5 (fun _ -> Speed.sample ()) in
  let start = Layer.now_ns () in
  let stream = w.prepare (Random.State.make [| seed; 0 |]) in
  let warm = stream (Random.State.make [| seed; 1 |]) in
  for i = 0 to w.warmup - 1 do
    Workloads.require (warm i () ()) (w.name ^ ": warm-up op failed")
  done;
  Gc.compact ();
  let op = stream (Random.State.make [| seed; 2 |]) in
  Workloads.reset_outputs ();
  if trace then (
    Obs.Metric.reset ();
    Obs.Metric.enable ());
  let setup_ns = float (Layer.now_ns () - start) in
  let after = List.init 5 (fun _ -> Speed.sample ()) in
  let setup_s = setup_ns *. Speed.nominal_ns /. median (before @ after) /. 1e9 in
  let gc0 = Gc.quick_stat () in
  (* peak heap after a fixed number of ops, so it does not grow with the
     number of ops a faster build fits into the loop *)
  let heap_ops = 10 * w.warmup and peak_heap = ref 0 in
  let ops = ref [] and attempted = ref 0 and failed = ref 0 in
  let refs = ref [ reference_sample () ] in
  (* which ops are traced is drawn apart from the op stream, so traced ops
     are an unbiased half of the mix *)
  let coin = Random.State.make [| seed; 3 |] in
  let budget = int_of_float (seconds *. 1e9) in
  let loop_start = Layer.now_ns () in
  while Layer.now_ns () - loop_start < budget || !attempted mod w.round <> 0 do
    if Layer.now_ns () - fst (List.hd !refs) >= reference_every_ns then
      refs := reference_sample () :: !refs;
    let run = op !attempted in
    let traced = trace && Random.State.bool coin in
    Layer.tracing := traced;
    let t0 = Layer.now_ns () in
    let result = try Ok (run ()) with _ -> Error () in
    let t1 = Layer.now_ns () in
    Layer.tracing := false;
    incr attempted;
    if !attempted = heap_ops then peak_heap := (Gc.quick_stat ()).top_heap_words;
    match result with
    | Ok check when (try check () with _ -> false) ->
        ops := { start = t0; ns = t1 - t0; traced } :: !ops
    | Ok _ | Error () -> incr failed
  done;
  refs := reference_sample () :: !refs;
  let gc1 = Gc.quick_stat () in
  if !peak_heap = 0 then peak_heap := gc1.top_heap_words;
  let ops = List.rev !ops and refs = List.rev !refs in
  let lat = Array.of_list (List.map (fun ns -> ns /. 1e6) (scaled ops refs)) in
  let busy_s = Array.fold_left ( +. ) 0. lat /. 1e3 in
  Array.sort compare lat;
  let traced, untraced = List.partition (fun o -> o.traced) ops in
  let raw_ms l = List.map (fun o -> float o.ns /. 1e6) l in
  let traced_ns = List.fold_left (fun acc o -> acc + o.ns) 0 traced in
  let pct ns = 100. *. ratio (float ns) (float traced_ns) in
  let per_op x = ratio x (float !attempted) in
  let o = Workloads.out in
  let hit_ratio hit miss = ratio (counter hit) (counter hit +. counter miss) in
  let g = reference_gc in
  let words_mb w = w *. float (Sys.word_size / 8) /. 1e6 in
  let values =
    [
      ("setup_s", setup_s);
      ("ops_per_s", ratio (float (Array.length lat)) busy_s);
      ("op_p50_ms", quantile lat 0.50);
      ("op_p95_ms", quantile lat 0.95);
      ("peak_heap_mb", words_mb (float !peak_heap));
    ]
    @ List.map (fun (l : Layer.t) -> (l.name ^ ".self_pct", pct l.ns)) Layer.all
    @ [
        ("bench.unattributed_pct", pct (traced_ns - Layer.total_ns ()));
        ( "bench.trace_overhead_pct",
          100. *. (ratio (median (raw_ms traced)) (median (raw_ms untraced)) -. 1.) );
        ("bench.reference_ms", median (List.map snd refs) /. 1e6);
        ("bench.raw_op_p50_ms", median (raw_ms ops));
        ( "xmi.import.alloc_mb",
          ratio (words_mb Workloads.xmi_import.words) (float (List.length traced)) );
        ("ocl.parse.hit_ratio", hit_ratio "ocl.parse.hit" "ocl.parse.miss");
        ("ocl.extent.hit_ratio", hit_ratio "ocl.extent.hit" "ocl.extent.miss");
        ("ocl.plan.index_probe_per_op", per_op (counter "ocl.plan.index_probe"));
        ("weave.index.probe_ratio", hit_ratio "weave.index.probe" "weave.index.scan");
        ("weaver.applications_per_op", per_op (float o.applications));
        ("code.woven_kb_per_op", per_op (float o.woven_bytes /. 1e3));
        ("repository.snapshot_kb", ratio (float o.snapshot_bytes /. 1e3) (float o.saves));
        ( "bench.output_kb_per_op",
          per_op (float (o.woven_bytes + o.xmi_bytes + o.snapshot_bytes) /. 1e3) );
        ("interp.calls_per_op", per_op (float o.calls));
        ("interp.events_per_call", ratio (float o.events) (float o.calls));
        ( "gc.minor_per_op",
          per_op (float (gc1.minor_collections - gc0.minor_collections - g.minors)) );
        ( "gc.major_per_op",
          per_op (float (gc1.major_collections - gc0.major_collections - g.majors)) );
        ("gc.alloc_mb_per_op", per_op (words_mb (alloc_words gc1 -. alloc_words gc0 -. g.words)));
      ]
  in
  Printf.printf "{\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" !attempted !failed
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_num v)) values));
  if !failed > 0 then exit 1

(* ---- one workload: [reps] fresh processes --------------------------------- *)

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  reps_ : (string * float) list list;  (** one metric assoc per good rep *)
}

(* The obs library's JSON reader; [Obs] does not re-export it. *)
module Json = Obs__Flatjson

let run_rep (w : Workloads.t) ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name; "--child"; "--workload"; w.name; "--seed"; string_of_int seed;
      "--seconds"; json_num seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let text = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let line =
    match List.rev (String.split_on_char '\n' (String.trim text)) with
    | l :: _ -> l
    | [] -> ""
  in
  let parsed =
    match Json.parse line with
    | Ok (Json.Obj fields) -> (
        match
          (List.assoc_opt "attempted" fields, List.assoc_opt "failed" fields,
           List.assoc_opt "metrics" fields)
        with
        | Some (Num a), Some (Num f), Some (Obj ms) ->
            Some
              ( int_of_float a,
                int_of_float f,
                List.filter_map
                  (function k, Json.Num v -> Some (k, v) | _ -> None)
                  ms )
        | _ -> None)
    | _ -> None
  in
  match (status, parsed) with
  | Unix.WEXITED 0, Some (a, f, ms) -> (true, a, f, Some ms)
  | _, Some (a, f, _) -> (false, a, f, None)
  | _, None -> (false, 0, 0, None)

let run_workload (w : Workloads.t) ~seed ~seconds ~trace =
  let rep_seconds = seconds /. float reps in
  let results = List.init reps (fun _ -> run_rep w ~seed ~seconds:rep_seconds ~trace) in
  {
    workload = w.name;
    correct = List.for_all (fun (ok, _, f, _) -> ok && f = 0) results;
    attempted = List.fold_left (fun acc (_, a, _, _) -> acc + a) 0 results;
    failed = List.fold_left (fun acc (_, _, f, _) -> acc + f) 0 results;
    reps_ = List.filter_map (fun (_, _, _, ms) -> ms) results;
  }

let rep_values r name =
  List.filter_map (fun ms -> List.assoc_opt name ms) r.reps_

let print_table r metrics =
  Printf.printf "%s: %s, %d ops attempted, %d failed\n" r.workload
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter
    (fun mt ->
      let vs = rep_values r mt.name in
      Printf.printf "  %-32s %14.4f %-6s reps %s\n" mt.name (median vs) mt.unit_
        (String.concat " " (List.map (Printf.sprintf "%.4f") vs)))
    metrics

let metrics_json ?(with_reps = false) r metrics =
  String.concat ", "
    (List.map
       (fun mt ->
         let vs = rep_values r mt.name in
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"%s}" mt.name
           (json_num (median vs)) mt.unit_
           (if with_reps then
              Printf.sprintf ", \"reps\": [%s]" (String.concat ", " (List.map json_num vs))
            else ""))
       metrics)

(* ---- entry -------------------------------------------------------------------- *)

let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let n = int_of_string_opt (String.trim (In_channel.input_all ic)) in
    ignore (Unix.close_process_in ic);
    Option.value ~default:(-1) n
  with Unix.Unix_error _ -> -1

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 15. and trace = ref 0 in
  let is_child = ref false and out = ref "bench-results.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics instead (default 0)");
      ("--out", Arg.Set_string out, "FILE results of an all-workload run (default bench-results.json)");
      ("--child", Arg.Set is_child, " run one repetition in this process");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "mdbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]";
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "mdbench: --trace takes 0 or 1";
    exit 2);
  let trace = !trace = 1 in
  let metrics = if trace then per_layer else end_to_end in
  let find name =
    match Workloads.find name with
    | Some w -> w
    | None ->
        prerr_endline ("mdbench: unknown workload " ^ name);
        exit 2
  in
  if !is_child then (
    try child (find !workload) ~seed:!seed ~seconds:!seconds ~trace
    with Workloads.Setup_failed msg ->
      prerr_endline ("mdbench: set-up check failed: " ^ msg);
      exit 1)
  else if !workload <> "" then begin
    let r = run_workload (find !workload) ~seed:!seed ~seconds:!seconds ~trace in
    print_table r metrics;
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      r.correct (max 1 r.attempted) r.failed (metrics_json r metrics);
    if not r.correct then exit 1
  end
  else begin
    let results =
      List.map
        (fun w ->
          let r = run_workload w ~seed:!seed ~seconds:!seconds ~trace in
          print_table r metrics;
          r)
        Workloads.all
    in
    let host =
      Printf.sprintf
        "{\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": \"%s\", \"seed\": %d, \
         \"seconds\": %s, \"reps\": %d, \"trace\": %b}"
        (nproc ()) (Domain.recommended_domain_count ()) Sys.ocaml_version !seed
        (json_num !seconds) reps trace
    in
    let workloads =
      List.map
        (fun r ->
          Printf.sprintf
            "    {\"name\": \"%s\", \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n\
            \     \"metrics\": {%s}}"
            r.workload r.correct r.attempted r.failed (metrics_json ~with_reps:true r metrics))
        results
    in
    Out_channel.with_open_text !out (fun oc ->
        Printf.fprintf oc "{\n  \"host\": %s,\n  \"workloads\": [\n%s\n  ]\n}\n" host
          (String.concat ",\n" workloads));
    Printf.printf "results written to %s\n" !out;
    if not (List.for_all (fun r -> r.correct) results) then exit 1
  end
