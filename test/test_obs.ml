(* lib/obs — spans, metrics, sinks, trace export.

   Covers: span nesting/ordering through the memory sink, exception
   safety, counter/gauge/histogram arithmetic, null-sink no-op behaviour,
   JSONL and Chrome trace well-formedness (validated with the minimal JSON
   parser below), Chrome rendering of a parsed JSONL trace, and
   determinism of the event stream modulo timestamps. *)

(* ---- a minimal JSON syntax checker ------------------------------------ *)

(* Accepts exactly the JSON grammar (RFC 8259) we emit; returns an error
   message on the first syntax violation. No AST — validation only. *)
module Json_check = struct
  exception Bad of string

  let check (s : string) : (unit, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some x when x = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word =
      String.iter (fun c -> expect c) word
    in
    let hex_digit () =
      match peek () with
      | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
      | _ -> fail "bad \\u escape"
    in
    let string_ () =
      expect '"';
      let rec chars () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                advance ();
                chars ()
            | Some 'u' ->
                advance ();
                hex_digit ();
                hex_digit ();
                hex_digit ();
                hex_digit ();
                chars ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "raw control char in string"
        | Some _ ->
            advance ();
            chars ()
      in
      chars ()
    in
    let digits () =
      let saw = ref false in
      let rec loop () =
        match peek () with
        | Some '0' .. '9' ->
            saw := true;
            advance ();
            loop ()
        | _ -> ()
      in
      loop ();
      if not !saw then fail "expected digit"
    in
    let number () =
      (match peek () with Some '-' -> advance () | _ -> ());
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      (match peek () with
      | Some '{' -> obj ()
      | Some '[' -> array_ ()
      | Some '"' -> string_ ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected value");
      skip_ws ()
    and obj () =
      expect '{';
      skip_ws ();
      (match peek () with
      | Some '}' -> advance ()
      | _ ->
          let rec members () =
            skip_ws ();
            string_ ();
            skip_ws ();
            expect ':';
            value ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | _ -> expect '}'
          in
          members ())
    and array_ () =
      expect '[';
      skip_ws ();
      match peek () with
      | Some ']' -> advance ()
      | _ ->
          let rec elements () =
            value ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | _ -> expect ']'
          in
          elements ()
    in
    match
      value ();
      skip_ws ();
      if !pos <> n then fail "trailing garbage"
    with
    | () -> Ok ()
    | exception Bad msg -> Error msg
end

let check_json what s =
  match Json_check.check s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid JSON: %s\n%s" what msg s

(* ---- helpers ----------------------------------------------------------- *)

(* Run [f] against a fresh memory sink from a clean obs state; returns the
   recorded events, with the global state reset afterwards. *)
let with_memory f =
  Obs.reset ();
  let sink, events = Obs.Sink.memory () in
  Obs.set_sink sink;
  Fun.protect ~finally:Obs.reset (fun () ->
      f ();
      events ())

(* A sequential batch refinement of three synthetic models: each item is
   one request, whose spans nest under the batch.run span. *)
let batch_trace () =
  let logging =
    Par.Batch.step ~concern:"logging"
      ~params:
        [ ("targets", Transform.Params.V_list [ Transform.Params.V_string "*" ]) ]
  in
  with_memory (fun () ->
      ignore
        (Par.Batch.refine_all ~steps:[ logging ]
           (Par.Workload.models ~classes:3 3)))

let names events = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) events
let phases events =
  List.map (fun (e : Obs.Event.t) -> Obs.Event.phase e.Obs.Event.kind) events
let depths events = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.depth) events

let sl = Alcotest.(list string)
let il = Alcotest.(list int)

(* A nest of spans, events and metrics used by several cases. *)
let workload () =
  Obs.span ~cat:"t" "outer" (fun () ->
      Obs.span ~cat:"t" "inner"
        ~args:[ ("k", Obs.Event.V_string "v\"quote\u{00e9}") ]
        (fun () -> Obs.event ~cat:"t" "tick" ~args:[ ("n", Obs.Event.V_int 3) ]);
      Obs.span ~cat:"t" "inner2" (fun () -> ()))

(* ---- spans -------------------------------------------------------------- *)

let span_tests =
  [
    Alcotest.test_case "nesting and ordering through the memory sink" `Quick
      (fun () ->
        let events = with_memory workload in
        Alcotest.(check sl)
          "names"
          [ "outer"; "inner"; "tick"; "inner"; "inner2"; "inner2"; "outer" ]
          (names events);
        Alcotest.(check sl)
          "phases"
          [ "B"; "B"; "i"; "E"; "B"; "E"; "E" ]
          (phases events);
        Alcotest.(check il) "depths" [ 0; 1; 2; 1; 1; 1; 0 ] (depths events);
        Alcotest.(check il) "seq is 1..n"
          (List.init (List.length events) (fun i -> i + 1))
          (List.map (fun (e : Obs.Event.t) -> e.Obs.Event.seq) events));
    Alcotest.test_case "span end carries wall time and allocations" `Quick
      (fun () ->
        let events =
          with_memory (fun () ->
              Obs.span "work" (fun () -> ignore (List.init 1000 Fun.id)))
        in
        match List.rev events with
        | { Obs.Event.kind = Obs.Event.Span_end { wall_ns; alloc_bytes }; _ }
          :: _ ->
            Alcotest.(check bool) "wall >= 0" true (Int64.compare wall_ns 0L >= 0);
            Alcotest.(check bool) "allocated something" true (alloc_bytes > 0.)
        | _ -> Alcotest.fail "last event is not a span end");
    Alcotest.test_case "exception still closes the span" `Quick (fun () ->
        let events =
          with_memory (fun () ->
              try
                Obs.span "outer" (fun () ->
                    Obs.span "boom" (fun () -> failwith "no"))
              with Failure _ -> ())
        in
        Alcotest.(check sl)
          "phases" [ "B"; "B"; "E"; "E" ] (phases events);
        Alcotest.(check il) "depth restored" [ 0; 1; 1; 0 ] (depths events));
    Alcotest.test_case "return value passes through" `Quick (fun () ->
        let v = with_memory (fun () -> ignore (Obs.span "s" (fun () -> 41 + 1))) in
        ignore v;
        Obs.reset ();
        Alcotest.(check int) "disabled too" 42 (Obs.span "s" (fun () -> 42)));
  ]

(* ---- null sink ---------------------------------------------------------- *)

let null_tests =
  [
    Alcotest.test_case "null sink is a no-op" `Quick (fun () ->
        Obs.reset ();
        Alcotest.(check bool) "disabled" false (Obs.enabled ());
        workload ();
        Alcotest.(check int) "no sequence numbers consumed" 0 (Obs.Span.seq ());
        Alcotest.(check int) "depth untouched" 0 (Obs.Span.depth ()));
    Alcotest.test_case "metrics disabled by default" `Quick (fun () ->
        Obs.reset ();
        Obs.incr "c" [];
        Obs.observe "h" [] 1.0;
        Obs.gauge "g" [] 2.0;
        Alcotest.(check int) "registry empty" 0
          (List.length (Obs.Metric.rows ())));
  ]

(* ---- metrics ------------------------------------------------------------ *)

let find_row metric rows =
  match
    List.find_opt (fun (r : Obs.Metric.row) -> r.Obs.Metric.metric = metric) rows
  with
  | Some r -> r
  | None -> Alcotest.failf "missing metric row %s" metric

let metric_tests =
  [
    Alcotest.test_case "counter arithmetic and labels" `Quick (fun () ->
        Obs.reset ();
        Obs.Metric.enable ();
        Fun.protect ~finally:Obs.reset (fun () ->
            Obs.incr "hits" [];
            Obs.incr "hits" [] ~by:2.5;
            Obs.incr "hits" [ ("who", "a") ];
            let rows = Obs.Metric.rows () in
            Alcotest.(check (float 1e-9))
              "plain" 3.5
              (find_row "hits" rows).Obs.Metric.value;
            Alcotest.(check (float 1e-9))
              "labelled" 1.0
              (find_row "hits{who=a}" rows).Obs.Metric.value));
    Alcotest.test_case "gauge keeps the last value" `Quick (fun () ->
        Obs.reset ();
        Obs.Metric.enable ();
        Fun.protect ~finally:Obs.reset (fun () ->
            Obs.gauge "depth" [] 4.0;
            Obs.gauge "depth" [] 7.0;
            Alcotest.(check (float 1e-9))
              "last write wins" 7.0
              (find_row "depth" (Obs.Metric.rows ())).Obs.Metric.value));
    Alcotest.test_case "histogram count/sum/min/max/mean" `Quick (fun () ->
        Obs.reset ();
        Obs.Metric.enable ();
        Fun.protect ~finally:Obs.reset (fun () ->
            List.iter (Obs.observe "lat" [] ~unit_:"ms") [ 1.0; 2.0; 3.0 ];
            let rows = Obs.Metric.rows () in
            let v m = (find_row m rows).Obs.Metric.value in
            Alcotest.(check (float 1e-9)) "count" 3.0 (v "lat.count");
            Alcotest.(check (float 1e-9)) "sum" 6.0 (v "lat.sum");
            Alcotest.(check (float 1e-9)) "min" 1.0 (v "lat.min");
            Alcotest.(check (float 1e-9)) "max" 3.0 (v "lat.max");
            Alcotest.(check (float 1e-9)) "mean" 2.0 (v "lat.mean");
            Alcotest.(check string)
              "unit" "ms" (find_row "lat.sum" rows).Obs.Metric.unit_));
    Alcotest.test_case "snapshot rows render as valid JSON" `Quick (fun () ->
        Obs.reset ();
        Obs.Metric.enable ();
        Fun.protect ~finally:Obs.reset (fun () ->
            Obs.incr "c\"tricky\nname" [ ("k", "v") ];
            Obs.observe "h" [] 0.5;
            check_json "metrics snapshot"
              (Obs.Metric.rows_to_json ~experiment:"E0" (Obs.Metric.rows ()))));
  ]

(* ---- trace formats ------------------------------------------------------ *)

let format_tests =
  [
    Alcotest.test_case "chrome trace is valid JSON with balanced B/E" `Quick
      (fun () ->
        let events = with_memory workload in
        let trace = Obs.Trace.to_chrome events in
        check_json "chrome trace" trace;
        let count ph =
          List.length
            (List.filter (fun (e : Obs.Event.t) ->
                 Obs.Event.phase e.Obs.Event.kind = ph)
               events)
        in
        Alcotest.(check int) "every B has an E" (count "B") (count "E"));
    Alcotest.test_case "empty trace still renders" `Quick (fun () ->
        check_json "empty chrome trace" (Obs.Trace.to_chrome []));
    Alcotest.test_case "jsonl: one valid JSON object per line" `Quick (fun () ->
        let lines =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n'
               (Obs.Trace.to_jsonl (with_memory workload)))
        in
        Alcotest.(check int) "7 events" 7 (List.length lines);
        List.iter (check_json "jsonl line") lines);
    (* `mdweave trace chrome` renders what it parses back from a --trace
       file: a recorded batch must come out as if rendered from the
       events themselves *)
    Alcotest.test_case "chrome survives a JSONL round trip" `Quick (fun () ->
        let events = batch_trace () in
        match Obs.Trace.parse (Obs.Trace.to_jsonl events) with
        | Error msg -> Alcotest.failf "parse failed: %s" msg
        | Ok parsed ->
            Alcotest.(check bool) "parsed events equal the recorded" true
              (parsed = events);
            let chrome = Obs.Trace.to_chrome events in
            check_json "chrome of a batch" chrome;
            Alcotest.(check string)
              "same bytes" chrome
              (Obs.Trace.to_chrome parsed));
  ]

(* ---- determinism -------------------------------------------------------- *)

let determinism_tests =
  [
    Alcotest.test_case "two identical runs agree modulo timestamps" `Quick
      (fun () ->
        let run () = List.map Obs.Event.normalize (with_memory workload) in
        let a = run () and b = run () in
        Alcotest.(check bool) "equal after normalize" true (a = b));
    Alcotest.test_case "an instrumented engine apply is deterministic" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let cmt =
          Transform.Cmt.specialize_exn Concerns.Transactions.transformation
            [
              ( "transactional",
                Transform.Params.V_list [ Transform.Params.V_ident "Account" ]
              );
            ]
        in
        let run () =
          List.map Obs.Event.normalize
            (with_memory (fun () ->
                 match Transform.Engine.apply cmt m with
                 | Ok _ -> ()
                 | Error f ->
                     Alcotest.failf "%s"
                       (Format.asprintf "%a" Transform.Engine.pp_failure f)))
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "equal after normalize" true (a = b);
        Alcotest.(check bool)
          "engine spans present" true
          (List.mem "engine.apply" (names a)
          && List.mem "engine.diff" (names a)
          && List.mem "engine.wf" (names a)
          && List.mem "report.make" (names a)));
  ]

(* ---- hist ---------------------------------------------------------------- *)

(* Deterministic pseudo-random stream (reproducible without qcheck): the
   48-bit drand48 LCG, high bits used for the modulus. *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    (!state lsr 16) mod bound

(* Nearest-rank quantile over the actual samples — the ground truth the
   bucketed estimate must stay within 1/16 of. *)
let reference_quantile values q =
  let arr = Array.of_list values in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank =
    let r = int_of_float (ceil (q *. float_of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  arr.(rank - 1)

let hist_tests =
  [
    Alcotest.test_case "quantiles track a sorted-array reference" `Quick
      (fun () ->
        let next = lcg 7 in
        (* mixed magnitudes: exact small values through multi-million ns *)
        let values =
          List.init 10_000 (fun _ ->
              match next 3 with
              | 0 -> float_of_int (next 16)
              | 1 -> float_of_int (next 10_000)
              | _ -> float_of_int (next 50_000_000))
        in
        let h = Obs.Hist.create () in
        List.iter (Obs.Hist.observe h) values;
        List.iter
          (fun q ->
            let est = Obs.Hist.quantile h q in
            let ref_v = reference_quantile values q in
            Alcotest.(check bool)
              (Printf.sprintf "q%.2f=%g >= reference %g" q est ref_v)
              true (est >= ref_v);
            (* one sub-bucket of relative error, one quantum absolute for
               the exact range *)
            let bound = Float.max (ref_v *. (1. +. 1. /. 16.)) (ref_v +. 1.) in
            Alcotest.(check bool)
              (Printf.sprintf "q%.2f=%g <= %g" q est bound)
              true (est <= bound);
            Alcotest.(check bool)
              "never above the recorded max" true
              (est <= Obs.Hist.max_value h))
          [ 0.5; 0.9; 0.99; 1.0 ])
    ;
    Alcotest.test_case "bucket boundaries" `Quick (fun () ->
        (* exact through 31: identity buckets *)
        for v = 0 to 31 do
          Alcotest.(check int)
            (Printf.sprintf "index of %d" v)
            v
            (Obs.Hist.index_of_value (float_of_int v))
        done;
        (* every bucket brackets its members and chains to the next *)
        List.iter
          (fun v ->
            let idx = Obs.Hist.index_of_value (float_of_int v) in
            Alcotest.(check bool)
              (Printf.sprintf "%d >= lower" v)
              true
              (float_of_int v >= Obs.Hist.lower_bound idx);
            Alcotest.(check bool)
              (Printf.sprintf "%d < upper" v)
              true
              (float_of_int v < Obs.Hist.upper_bound idx))
          [ 32; 33; 255; 256; 257; 4095; 4096; 1_000_000; 1_000_000_007 ];
        Alcotest.(check (float 0.))
          "buckets tile: upper i = lower i+1"
          (Obs.Hist.upper_bound 100)
          (Obs.Hist.lower_bound 101);
        (* totality: garbage lands at the edges instead of raising *)
        Alcotest.(check int) "negative -> 0" 0 (Obs.Hist.index_of_value (-5.));
        Alcotest.(check int) "nan -> 0" 0 (Obs.Hist.index_of_value Float.nan);
        (* beyond 2^62 everything clamps into max_int's bucket *)
        Alcotest.(check int)
          "huge -> max_int's bucket"
          (Obs.Hist.index_of_value (float_of_int max_int))
          (Obs.Hist.index_of_value 1e19);
        Alcotest.(check bool)
          "that bucket is in range" true
          (Obs.Hist.index_of_value 1e19 < Obs.Hist.bucket_count))
    ;
    Alcotest.test_case "merge is exact and order-independent" `Quick (fun () ->
        let next = lcg 23 in
        let values = List.init 2_000 (fun _ -> float_of_int (next 1_000_000)) in
        let whole = Obs.Hist.create () in
        List.iter (Obs.Hist.observe whole) values;
        (* shard round-robin over 3 histograms, merge back in two orders *)
        let shards = Array.init 3 (fun _ -> Obs.Hist.create ()) in
        List.iteri
          (fun i v -> Obs.Hist.observe shards.(i mod 3) v)
          values;
        let merge order =
          let into = Obs.Hist.create () in
          List.iter (fun i -> Obs.Hist.merge_into ~into shards.(i)) order;
          into
        in
        let a = merge [ 0; 1; 2 ] and b = merge [ 2; 0; 1 ] in
        List.iter
          (fun (name, m) ->
            Alcotest.(check int)
              (name ^ " count") (Obs.Hist.count whole) (Obs.Hist.count m);
            Alcotest.(check (float 1e-6))
              (name ^ " sum") (Obs.Hist.sum whole) (Obs.Hist.sum m);
            Alcotest.(check (float 0.))
              (name ^ " min") (Obs.Hist.min_value whole) (Obs.Hist.min_value m);
            Alcotest.(check (float 0.))
              (name ^ " max") (Obs.Hist.max_value whole) (Obs.Hist.max_value m);
            Alcotest.(check bool)
              (name ^ " buckets identical") true
              (Obs.Hist.buckets whole = Obs.Hist.buckets m))
          [ ("fwd", a); ("perm", b) ])
    ;
  ]

(* ---- exposition ----------------------------------------------------------- *)

let expo_lines () = String.split_on_char '\n' (Obs.Expo.render ())

let expo_tests =
  [
    Alcotest.test_case "name sanitization" `Quick (fun () ->
        Alcotest.(check string)
          "dots" "repo_session_commit_latency_ns"
          (Obs.Expo.sanitize "repo.session.commit.latency_ns");
        Alcotest.(check string)
          "leading digit" "_9lives" (Obs.Expo.sanitize "9lives");
        Alcotest.(check string) "empty" "_" (Obs.Expo.sanitize ""))
    ;
    Alcotest.test_case "counters, gauges and histogram triples" `Quick
      (fun () ->
        Obs.reset ();
        Obs.Metric.enable ();
        Fun.protect ~finally:Obs.reset (fun () ->
            Obs.incr "req.count" [] ~by:3.;
            Obs.gauge "pool.depth" [] 4.;
            List.iter (Obs.observe "svc.lat_ns" [] ~unit_:"ns")
              [ 1.; 2.; 300.; 40_000. ];
            let text = Obs.Expo.render () in
            let has l = List.mem l (expo_lines ()) in
            Alcotest.(check bool) "counter type" true
              (has "# TYPE req_count counter");
            Alcotest.(check bool) "counter sample" true (has "req_count 3");
            Alcotest.(check bool) "gauge sample" true (has "pool_depth 4");
            Alcotest.(check bool) "histogram type" true
              (has "# TYPE svc_lat_ns histogram");
            Alcotest.(check bool) "+Inf bucket" true
              (has "svc_lat_ns_bucket{le=\"+Inf\"} 4");
            Alcotest.(check bool) "count" true (has "svc_lat_ns_count 4");
            Alcotest.(check bool) "sum" true (has "svc_lat_ns_sum 40303");
            (* bucket counts are cumulative: each le line <= the next *)
            let bucket_counts =
              List.filter_map
                (fun l ->
                  if
                    String.length l > 18
                    && String.sub l 0 18 = "svc_lat_ns_bucket{"
                  then
                    String.rindex_opt l ' '
                    |> Option.map (fun i ->
                           int_of_string
                             (String.sub l (i + 1) (String.length l - i - 1)))
                  else None)
                (expo_lines ())
            in
            Alcotest.(check bool) "several buckets" true
              (List.length bucket_counts >= 4);
            Alcotest.(check bool) "cumulative" true
              (List.for_all2 ( <= )
                 (List.filteri
                    (fun i _ -> i < List.length bucket_counts - 1)
                    bucket_counts)
                 (List.tl bucket_counts));
            ignore text))
    ;
  ]

(* ---- request context ------------------------------------------------------ *)

let request_tests =
  [
    Alcotest.test_case "events carry the ambient request/session ids" `Quick
      (fun () ->
        let events =
          with_memory (fun () ->
              Obs.with_session ~id:7 (fun () ->
                  Obs.with_request ~id:42 (fun () -> Obs.event "inside"));
              Obs.event "outside")
        in
        match events with
        | [ inside; outside ] ->
            Alcotest.(check int) "req" 42 inside.Obs.Event.req;
            Alcotest.(check int) "sess" 7 inside.Obs.Event.sess;
            Alcotest.(check int) "req restored" 0 outside.Obs.Event.req;
            Alcotest.(check int) "sess restored" 0 outside.Obs.Event.sess
        | _ -> Alcotest.fail "expected two events")
    ;
    Alcotest.test_case "fresh request ids are distinct and increasing" `Quick
      (fun () ->
        Obs.reset ();
        let a = Obs.with_request (fun () -> Obs.request_id ()) in
        let b = Obs.with_request (fun () -> Obs.request_id ()) in
        Alcotest.(check bool) "a > 0" true (a > 0);
        Alcotest.(check bool) "b > a" true (b > a);
        Alcotest.(check int) "cleared outside" 0 (Obs.request_id ()))
    ;
    Alcotest.test_case "normalize zeroes request and session ids" `Quick
      (fun () ->
        let events =
          with_memory (fun () ->
              Obs.with_session ~id:3 (fun () ->
                  Obs.with_request (fun () ->
                      Obs.span "s" (fun () -> Obs.event "e"))))
        in
        List.iter
          (fun e ->
            let n = Obs.Event.normalize e in
            Alcotest.(check int) "req zeroed" 0 n.Obs.Event.req;
            Alcotest.(check int) "sess zeroed" 0 n.Obs.Event.sess;
            Alcotest.(check bool) "ts zeroed" true (n.Obs.Event.ts_ns = 0L))
          events)
    ;
  ]

(* ---- trace analysis -------------------------------------------------------- *)

let trace_tests =
  [
    Alcotest.test_case "JSONL round-trips through parse" `Quick (fun () ->
        let events =
          with_memory (fun () ->
              Obs.with_session ~id:2 (fun () ->
                  Obs.with_request ~id:9 (fun () -> workload ())))
        in
        match Obs.Trace.parse (Obs.Trace.to_jsonl events) with
        | Error msg -> Alcotest.failf "parse failed: %s" msg
        | Ok parsed ->
            (* ts_ns exceeds the float mantissa, so compare normalized *)
            Alcotest.(check bool) "events equal modulo timestamps" true
              (List.map Obs.Event.normalize parsed
              = List.map Obs.Event.normalize events);
            Alcotest.(check bool) "ids survive the round trip" true
              (List.for_all
                 (fun (e : Obs.Event.t) ->
                   e.Obs.Event.req = 9 && e.Obs.Event.sess = 2)
                 parsed))
    ;
    Alcotest.test_case "bad lines fail with their line number" `Quick
      (fun () ->
        match Obs.Trace.parse "{\"ph\":\"i\"}\nnot json\n" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "mentions line 2: %s" msg)
              true
              (String.length msg >= 7 && String.sub msg 0 7 = "line 2:"))
    ;
    Alcotest.test_case "summarize counts and critical path" `Quick (fun () ->
        let events =
          with_memory (fun () ->
              Obs.with_session ~id:1 (fun () ->
                  Obs.with_request ~id:1 (fun () ->
                      Obs.span ~cat:"repo" "outer" (fun () ->
                          Obs.span ~cat:"repo" "heavy" (fun () ->
                              ignore (Sys.opaque_identity (List.init 100 Fun.id)))));
                  Obs.with_request ~id:2 (fun () ->
                      Obs.event ~cat:"repo" "ping")))
        in
        let text = Obs.Trace.summarize events in
        let first =
          match String.split_on_char '\n' text with l :: _ -> l | [] -> ""
        in
        Alcotest.(check string)
          "header" "trace: 5 event(s), 1 domain(s), 2 request(s), 1 session(s)"
          first;
        Alcotest.(check bool) "critical path descends" true
          (let open String in
           length text > 0
           &&
           let rec contains i =
             i + 13 <= length text
             && (equal (sub text i 13) "outer > heavy" || contains (i + 1))
           in
           contains 0);
        (* each batch request still reads its own wall and critical path *)
        let rows = Obs.Trace.by_request (batch_trace ()) in
        Alcotest.(check int) "one row per item" 3 (List.length rows);
        List.iter
          (fun (r : Obs.Trace.request_row) ->
            Alcotest.(check bool)
              (Printf.sprintf "req %d has a wall" r.Obs.Trace.rr_req)
              true
              (r.Obs.Trace.rr_wall_ns > 0L);
            Alcotest.(check (option string))
              (Printf.sprintf "req %d path" r.Obs.Trace.rr_req)
              (Some "pipeline.refine")
              (List.nth_opt r.Obs.Trace.rr_critical_path 0))
          rows)
    ;
    Alcotest.test_case "slice keeps exactly the matching events" `Quick
      (fun () ->
        let events =
          with_memory (fun () ->
              Obs.with_session ~id:1 (fun () ->
                  Obs.with_request ~id:1 (fun () -> Obs.event "a");
                  Obs.with_request ~id:2 (fun () -> Obs.event "b"));
              Obs.with_session ~id:2 (fun () ->
                  Obs.with_request ~id:3 (fun () -> Obs.event "c")))
        in
        Alcotest.(check sl) "by request" [ "b" ]
          (names (Obs.Trace.slice ~req:2 events));
        Alcotest.(check sl) "by session" [ "a"; "b" ]
          (names (Obs.Trace.slice ~sess:1 events));
        Alcotest.(check sl) "conjunction" [ "c" ]
          (names (Obs.Trace.slice ~req:3 ~sess:2 events));
        Alcotest.(check sl) "empty" []
          (names (Obs.Trace.slice ~req:1 ~sess:2 events)))
    ;
  ]

(* ---- regression gate ------------------------------------------------------- *)

let snapshot_json rows =
  "[\n"
  ^ String.concat ",\n"
      (List.map
         (fun (e, m, v, u) ->
           Printf.sprintf
             "{\"experiment\":\"%s\",\"metric\":\"%s\",\"value\":%g,\"unit\":\"%s\"}"
             e m v u)
         rows)
  ^ "\n]\n"

let regress_tests =
  [
    Alcotest.test_case "direction comes from the unit" `Quick (fun () ->
        let old_rows =
          snapshot_json
            [
              ("E", "t", 100., "ns/run");
              ("E", "s", 10., "x");
              ("E", "c", 5., "count");
            ]
        in
        let new_rows =
          snapshot_json
            [
              ("E", "t", 300., "ns/run") (* 3x slower: regression *);
              ("E", "s", 30., "x") (* 3x more speedup: improvement *);
              ("E", "c", 50., "count") (* counters are informational *);
            ]
        in
        let parse s =
          match Obs.Regress.parse s with
          | Ok r -> r
          | Error m -> Alcotest.failf "parse: %s" m
        in
        let entries =
          Obs.Regress.compare_snapshots ~tolerance:50. (parse old_rows)
            (parse new_rows)
        in
        let verdict metric =
          match
            List.find_opt (fun (e : Obs.Regress.entry) -> snd e.key = metric)
              entries
          with
          | Some e -> e.Obs.Regress.verdict
          | None -> Alcotest.failf "missing entry %s" metric
        in
        Alcotest.(check bool) "ns/run regressed" true
          (verdict "t" = Obs.Regress.Regressed);
        Alcotest.(check bool) "x improved" true
          (verdict "s" = Obs.Regress.Improved);
        Alcotest.(check bool) "count informational" true
          (verdict "c" = Obs.Regress.Info);
        Alcotest.(check int) "gate fails" 1 (Obs.Regress.gate entries))
    ;
    Alcotest.test_case "tolerance, added and removed rows never gate" `Quick
      (fun () ->
        let parse s =
          match Obs.Regress.parse s with
          | Ok r -> r
          | Error m -> Alcotest.failf "parse: %s" m
        in
        let olds =
          parse
            (snapshot_json
               [ ("E", "t", 100., "ns/run"); ("E", "gone", 1., "ns/run") ])
        in
        let news =
          parse
            (snapshot_json
               [ ("E", "t", 109., "ns/run"); ("E", "fresh", 1., "ns/run") ])
        in
        let entries = Obs.Regress.compare_snapshots ~tolerance:10. olds news in
        Alcotest.(check int) "within tolerance + churn passes" 0
          (Obs.Regress.gate entries);
        Alcotest.(check bool) "added reported" true
          (List.exists
             (fun (e : Obs.Regress.entry) ->
               e.Obs.Regress.verdict = Obs.Regress.Added)
             entries);
        Alcotest.(check bool) "removed reported" true
          (List.exists
             (fun (e : Obs.Regress.entry) ->
               e.Obs.Regress.verdict = Obs.Regress.Removed)
             entries))
    ;
  ]

let () =
  Alcotest.run "obs"
    [
      ("span", span_tests);
      ("null", null_tests);
      ("metric", metric_tests);
      ("format", format_tests);
      ("determinism", determinism_tests);
      ("hist", hist_tests);
      ("expo", expo_tests);
      ("request", request_tests);
      ("trace", trace_tests);
      ("regress", regress_tests);
    ]
