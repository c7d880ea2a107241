(* lib/par — the domain pool's deterministic-merge contract and the batch
   front-end over Core.Pipeline: results in submission order regardless of
   completion order, per-item failures that never poison the batch,
   identical outcomes at every pool width, and exact merged metrics. *)

let check = Alcotest.check

(* ---- pool scheduling ------------------------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "results come back in submission order" `Quick
      (fun () ->
        (* later items sleep less, so under any real concurrency the
           completion order inverts the submission order *)
        Par.Pool.with_pool ~jobs:4 (fun p ->
            let out =
              Par.Pool.map p
                (fun i ->
                  Unix.sleepf (float_of_int (12 - i) *. 0.002);
                  i * i)
                (List.init 12 Fun.id)
            in
            check
              (Alcotest.list Alcotest.int)
              "squares in order"
              (List.init 12 (fun i -> i * i))
              out));
    Alcotest.test_case "empty input, singleton input" `Quick (fun () ->
        Par.Pool.with_pool ~jobs:3 (fun p ->
            check (Alcotest.list Alcotest.int) "empty" []
              (Par.Pool.map p (fun i -> i) []);
            check (Alcotest.list Alcotest.int) "singleton" [ 7 ]
              (Par.Pool.map p (fun i -> i) [ 7 ])));
    Alcotest.test_case "jobs are clamped to at least one" `Quick (fun () ->
        Par.Pool.with_pool ~jobs:0 (fun p ->
            check Alcotest.int "width" 1 (Par.Pool.jobs p);
            check
              (Alcotest.list Alcotest.int)
              "sequential path" [ 1; 2; 3 ]
              (Par.Pool.map p Fun.id [ 1; 2; 3 ])));
    Alcotest.test_case
      "one raising item surfaces after the rest completed, pool survives"
      `Quick (fun () ->
        Par.Pool.with_pool ~jobs:4 (fun p ->
            let ran = Atomic.make 0 in
            (try
               ignore
                 (Par.Pool.map p
                    (fun i ->
                      if i = 5 then failwith "poisoned item"
                      else Atomic.incr ran)
                    (List.init 12 Fun.id));
               Alcotest.fail "expected the poisoned item to raise"
             with Failure msg ->
               check Alcotest.string "the item's own exception" "poisoned item"
                 msg);
            (* every other item still ran: one failure never cancels the
               batch *)
            check Alcotest.int "other items all ran" 11 (Atomic.get ran);
            (* and the pool is still usable afterwards *)
            check
              (Alcotest.list Alcotest.int)
              "pool survives" [ 0; 2; 4 ]
              (Par.Pool.map p (fun i -> 2 * i) [ 0; 1; 2 ])));
    Alcotest.test_case "lowest failing index wins when several items raise"
      `Quick (fun () ->
        Par.Pool.with_pool ~jobs:4 (fun p ->
            try
              ignore
                (Par.Pool.map p
                   (fun i ->
                     if i mod 3 = 2 then failwith (Printf.sprintf "item %d" i))
                   (List.init 10 Fun.id));
              Alcotest.fail "expected a raise"
            with Failure msg ->
              check Alcotest.string "first in submission order" "item 2" msg));
    Alcotest.test_case "a pool can run many maps back to back" `Quick
      (fun () ->
        Par.Pool.with_pool ~jobs:3 (fun p ->
            for n = 1 to 10 do
              check
                (Alcotest.list Alcotest.int)
                (Printf.sprintf "round %d" n)
                (List.init n (fun i -> i + n))
                (Par.Pool.map p (fun i -> i + n) (List.init n Fun.id))
            done));
    Alcotest.test_case "a traced map records every item, in submission order"
      `Quick (fun () ->
        (* each item waits until both have started, so the two run on
           different domains (the wait gives up after 5 s, so a starved
           worker only makes the run sequential) *)
        let started = Atomic.make 0 in
        let item i =
          Atomic.incr started;
          let deadline = Unix.gettimeofday () +. 5. in
          while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          Obs.event (Printf.sprintf "item%d" i)
        in
        let sink, events = Obs.Sink.memory () in
        Obs.with_sink sink (fun () ->
            Par.Pool.with_pool ~jobs:2 (fun p ->
                ignore (Par.Pool.map p item [ 0; 1 ])));
        check
          (Alcotest.list Alcotest.string)
          "both items' events" [ "item0"; "item1" ]
          (List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) (events ())));
    Alcotest.test_case "map on a shut-down pool is refused" `Quick (fun () ->
        let p = Par.Pool.create ~jobs:2 () in
        Par.Pool.shutdown p;
        Alcotest.check_raises "refused"
          (Invalid_argument "Par.Pool.map: pool is shut down") (fun () ->
            ignore (Par.Pool.map p Fun.id [ 1; 2 ])));
  ]

(* ---- batch refinement ------------------------------------------------- *)

let steps =
  [
    Par.Batch.step ~concern:"transactions"
      ~params:
        [
          ( "transactional",
            Transform.Params.V_list [ Transform.Params.V_ident "C0" ] );
        ];
    Par.Batch.step ~concern:"logging"
      ~params:
        [ ("targets", Transform.Params.V_list [ Transform.Params.V_string "*" ]) ];
  ]

let same_outcome (a : Par.Batch.outcome) (b : Par.Batch.outcome) =
  match (a, b) with
  | Ok p, Ok q -> Mof.Model.equal (Core.Project.model p) (Core.Project.model q)
  | Error e, Error f ->
      Core.Pipeline.error_to_string e = Core.Pipeline.error_to_string f
  | _ -> false

let batch_tests =
  [
    Alcotest.test_case "identical outcomes at every pool width, twice over"
      `Quick (fun () ->
        let models = Par.Workload.models ~classes:5 7 in
        let baseline = Par.Batch.refine_all ~steps models in
        check Alcotest.int "baseline all ok" 7
          (List.length (List.filter Result.is_ok baseline));
        List.iter
          (fun jobs ->
            Par.Pool.with_pool ~jobs (fun p ->
                let once = Par.Batch.refine_all ~pool:p ~steps models in
                let again = Par.Batch.refine_all ~pool:p ~steps models in
                check Alcotest.bool
                  (Printf.sprintf "jobs=%d matches sequential" jobs)
                  true
                  (List.for_all2 same_outcome baseline once);
                check Alcotest.bool
                  (Printf.sprintf "jobs=%d repeats itself" jobs)
                  true
                  (List.for_all2 same_outcome once again)))
          [ 1; 2; 4; 8 ])
    ;
    Alcotest.test_case "one poisoned item: exactly one Error, in its slot"
      `Quick (fun () ->
        (* the class-less model fails transactions' transactional-classes-
           exist precondition; everyone else refines *)
        let models =
          List.mapi
            (fun i m -> if i = 3 then Par.Workload.synthetic ~classes:0 "empty" else m)
            (Par.Workload.models ~classes:4 6)
        in
        Par.Pool.with_pool ~jobs:3 (fun p ->
            let out = Par.Batch.refine_all ~pool:p ~steps models in
            List.iteri
              (fun i outcome ->
                match (i, outcome) with
                | 3, Error (Core.Pipeline.Engine_failure _) -> ()
                | 3, Error e ->
                    Alcotest.failf "item 3: unexpected error %s"
                      (Core.Pipeline.error_to_string e)
                | 3, Ok _ -> Alcotest.fail "item 3 should have failed"
                | i, Error e ->
                    Alcotest.failf "item %d poisoned by its neighbour: %s" i
                      (Core.Pipeline.error_to_string e)
                | _, Ok _ -> ())
              out))
    ;
    Alcotest.test_case "pool reuse leaks no cache state across batches"
      `Quick (fun () ->
        (* same pool, two different batches: the second must match a fresh
           sequential run even though the same workers ran the first *)
        Par.Pool.with_pool ~jobs:3 (fun p ->
            let batch_a = Par.Workload.models ~classes:4 4 in
            let batch_b = Par.Workload.models ~classes:6 5 in
            ignore (Par.Batch.refine_all ~pool:p ~steps batch_a);
            let pooled = Par.Batch.refine_all ~pool:p ~steps batch_b in
            let fresh = Par.Batch.refine_all ~steps batch_b in
            check Alcotest.bool "second batch unaffected by the first" true
              (List.for_all2 same_outcome fresh pooled)))
    ;
    Alcotest.test_case "merged counters are exact across domains" `Quick
      (fun () ->
        Obs.Metric.enable ();
        ignore (Obs.Metric.drain ());
        let models = Par.Workload.models ~classes:3 6 in
        Par.Pool.with_pool ~jobs:3 (fun p ->
            ignore (Par.Batch.refine_all ~pool:p ~steps models));
        let shard = Obs.Metric.drain () in
        let total name =
          List.fold_left
            (fun acc ((n, _), cell) ->
              match (cell : Obs.Metric.cell) with
              | Obs.Metric.Counter { total; _ } when n = name -> acc +. total
              | _ -> acc)
            0. shard
        in
        let items = total "batch.items"
        and ok = total "batch.ok"
        and applies = total "engine.apply.ok" in
        Obs.Metric.disable ();
        (* 6 items, 2 steps each: counts must merge exactly no matter which
           domain ran which item *)
        check (Alcotest.float 0.0) "batch.items" 6. items;
        check (Alcotest.float 0.0) "batch.ok" 6. ok;
        check (Alcotest.float 0.0) "engine.apply.ok" 12. applies)
    ;
    Alcotest.test_case "merged histograms are exact across domains" `Quick
      (fun () ->
        (* observe a known value set from pool workers; the drained shard
           must hold the element-wise merge — same buckets, count, sum and
           extrema as observing the whole set on one domain *)
        let values = List.init 64 (fun i -> float_of_int ((i * 7919) + 1)) in
        Obs.Metric.enable ();
        ignore (Obs.Metric.drain ());
        Par.Pool.with_pool ~jobs:4 (fun p ->
            ignore
              (Par.Pool.map p
                 (fun v ->
                   Obs.observe ~unit_:"ns" "par.test.latency_ns" [] v)
                 values));
        let shard = Obs.Metric.drain () in
        Obs.Metric.disable ();
        let merged =
          List.find_map
            (fun ((n, _), cell) ->
              match (cell : Obs.Metric.cell) with
              | Obs.Metric.Histogram { hist; _ }
                when n = "par.test.latency_ns" ->
                  Some hist
              | _ -> None)
            shard
        in
        match merged with
        | None -> Alcotest.fail "histogram cell missing after drain"
        | Some h ->
            let whole = Obs.Hist.create () in
            List.iter (Obs.Hist.observe whole) values;
            check Alcotest.int "count" (Obs.Hist.count whole)
              (Obs.Hist.count h);
            check (Alcotest.float 1e-6) "sum" (Obs.Hist.sum whole)
              (Obs.Hist.sum h);
            check (Alcotest.float 0.0) "min" (Obs.Hist.min_value whole)
              (Obs.Hist.min_value h);
            check (Alcotest.float 0.0) "max" (Obs.Hist.max_value whole)
              (Obs.Hist.max_value h);
            check Alcotest.bool "buckets identical" true
              (Obs.Hist.buckets whole = Obs.Hist.buckets h))
    ;
    Alcotest.test_case "per-item traces equal the sequential ones" `Quick
      (fun () ->
        let models = Par.Workload.models ~classes:3 5 in
        let seq = Par.Batch.refine_all_traced ~steps models in
        Par.Pool.with_pool ~jobs:2 (fun p ->
            let par = Par.Batch.refine_all_traced ~pool:p ~steps models in
            List.iteri
              (fun i ((o_seq, ev_seq), (o_par, ev_par)) ->
                check Alcotest.bool
                  (Printf.sprintf "item %d outcome" i)
                  true
                  (same_outcome o_seq o_par);
                check Alcotest.bool
                  (Printf.sprintf "item %d has events" i)
                  true (ev_seq <> []);
                check Alcotest.bool
                  (Printf.sprintf "item %d normalized trace" i)
                  true
                  (List.map Obs.Event.normalize ev_seq
                  = List.map Obs.Event.normalize ev_par))
              (List.combine seq par)))
    ;
  ]

let () =
  Alcotest.run "par"
    [ ("pool", pool_tests); ("batch", batch_tests) ]
