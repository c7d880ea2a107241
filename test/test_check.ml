(* Tests for the fuzz harness itself, plus the fixed-seed smoke battery:
   every oracle runs 200 randomized cases inside `dune runtest`. Long runs
   (10k+ cases, arbitrary seeds) go through `bin/check_cli` — see README. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let smoke_seed = 42L
let smoke_count = 200

(* ---- prng ----------------------------------------------------------------- *)

let prng_tests =
  [
    Alcotest.test_case "equal seeds give equal streams" `Quick (fun () ->
        let a = Check.Prng.make 7L and b = Check.Prng.make 7L in
        let da = List.init 50 (fun _ -> Check.Prng.bits64 a) in
        let db = List.init 50 (fun _ -> Check.Prng.bits64 b) in
        check cb "same" true (da = db));
    Alcotest.test_case "mix separates case streams" `Quick (fun () ->
        let s1 = Check.Prng.mix 42L 1 and s2 = Check.Prng.mix 42L 2 in
        check cb "distinct" true (s1 <> s2));
    Alcotest.test_case "int stays in bounds" `Quick (fun () ->
        let g = Check.Prng.make 3L in
        for _ = 1 to 1000 do
          let v = Check.Prng.int g 7 in
          check cb "in range" true (v >= 0 && v < 7)
        done);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let g = Check.Prng.make 11L in
        let xs = List.init 20 Fun.id in
        let ys = Check.Prng.shuffle g xs in
        check cb "same multiset" true (List.sort compare ys = xs));
  ]

(* ---- shrinking ------------------------------------------------------------ *)

let shrink_tests =
  [
    Alcotest.test_case "finds a 1-element core" `Quick (fun () ->
        let fails xs = List.mem 13 xs in
        let input = List.init 40 Fun.id in
        check cb "input fails" true (fails input);
        let out = Check.Shrink.list ~still_fails:fails input in
        check cb "still fails" true (fails out);
        check ci "minimal" 1 (List.length out));
    Alcotest.test_case "finds a 2-element core" `Quick (fun () ->
        let fails xs = List.mem 3 xs && List.mem 33 xs in
        let out =
          Check.Shrink.list ~still_fails:fails (List.init 40 Fun.id)
        in
        check cb "still fails" true (fails out);
        check ci "minimal" 2 (List.length out));
    Alcotest.test_case "non-failing input returned unchanged" `Quick (fun () ->
        let out =
          Check.Shrink.list ~still_fails:(fun _ -> false) [ 1; 2; 3 ]
        in
        check cb "unchanged" true (out = [ 1; 2; 3 ]));
  ]

(* ---- edit scripts --------------------------------------------------------- *)

let edit_tests =
  [
    Alcotest.test_case "apply is total on arbitrary sublists" `Quick (fun () ->
        (* drop every other op of a generated script pair: still applies *)
        let rng = Check.Prng.make 5L in
        for _ = 1 to 50 do
          let base = Check.Gen.base_script rng in
          let edits = Check.Gen.edit_script rng ~base in
          let thin xs = List.filteri (fun i _ -> i mod 2 = 0) xs in
          let m, slots =
            Check.Edit.apply_with_slots
              (Mof.Model.create ~name:"fuzz")
              (thin base)
          in
          ignore (Check.Edit.apply_from m ~slots (thin edits))
        done);
    Alcotest.test_case "base scripts build well-formed models" `Quick (fun () ->
        let rng = Check.Prng.make 17L in
        for _ = 1 to 100 do
          let base = Check.Gen.base_script rng in
          let m = Check.Edit.apply (Mof.Model.create ~name:"fuzz") base in
          check cb "clean" true (Mof.Wellformed.check m = [])
        done);
    Alcotest.test_case "sublists of base scripts stay well-formed" `Quick
      (fun () ->
        let rng = Check.Prng.make 23L in
        for _ = 1 to 50 do
          let base = Check.Gen.base_script rng in
          let thin xs = List.filteri (fun i _ -> i mod 3 <> 1) xs in
          let m = Check.Edit.apply (Mof.Model.create ~name:"fuzz") (thin base) in
          check cb "clean" true (Mof.Wellformed.check m = [])
        done);
  ]

(* ---- oracle plumbing ------------------------------------------------------ *)

let oracle_tests =
  [
    Alcotest.test_case "tag_of extracts the bracketed prefix" `Quick (fun () ->
        check Alcotest.string "tagged" "[xmi]"
          (Check.Oracle.tag_of "[xmi] something broke");
        check Alcotest.string "untagged" "plain" (Check.Oracle.tag_of "plain"));
    Alcotest.test_case "all ten oracles are registered" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "names"
          [
            "diff"; "wf"; "xmi"; "query"; "ocl"; "weave"; "weave-local"; "par";
            "repo"; "matcher";
          ]
          (List.map (fun (o : Check.Oracle.t) -> o.name) Check.Oracle.all));
    Alcotest.test_case "armored rendering parses back to the plain tree" `Quick
      (fun () ->
        let rng = Check.Prng.make 29L in
        for _ = 1 to 50 do
          let base = Check.Gen.base_script rng in
          let m = Check.Edit.apply (Mof.Model.create ~name:"fuzz") base in
          let plain = Xmi.Xml_parser.parse (Xmi.Export.to_string m) in
          let armored = Check.Gen.armor (Check.Prng.split rng) plain in
          check cb "same tree" true
            (Xmi.Xml.equal (Xmi.Xml_parser.parse armored) plain)
        done);
  ]

(* ---- the ocl oracle reaches the planner ----------------------------------- *)

(* The ocl oracle compares planned evaluation with [check_naive]; that
   comparison only guards the planner if the generated constraints take its
   index probes, so a short run must count some. *)
let ocl_planner_tests =
  [
    Alcotest.test_case "the ocl oracle's cases take index probes" `Quick
      (fun () ->
        let oracle =
          match Check.Oracle.find "ocl" with
          | Some o -> o
          | None -> Alcotest.fail "ocl oracle not registered"
        in
        Obs.reset ();
        Obs.Metric.enable ();
        Fun.protect ~finally:Obs.reset (fun () ->
            (match Check.Harness.run oracle ~seed:smoke_seed ~count:50 with
            | Ok stats -> check ci "all cases ran" 50 stats.cases
            | Error (f, _) ->
                Alcotest.fail (Format.asprintf "%a" Check.Harness.pp_failure f));
            let probes =
              List.fold_left
                (fun acc (r : Obs.Metric.row) ->
                  if r.Obs.Metric.metric = "ocl.plan.index_probe" then
                    acc +. r.Obs.Metric.value
                  else acc)
                0. (Obs.Metric.rows ())
            in
            check cb
              (Printf.sprintf "index probes counted (got %g)" probes)
              true (probes > 0.)));
  ]

(* ---- the smoke battery ---------------------------------------------------- *)

let smoke_case (oracle : Check.Oracle.t) =
  Alcotest.test_case
    (Printf.sprintf "%s: %d cases at seed %Ld" oracle.name smoke_count
       smoke_seed)
    `Quick
    (fun () ->
      match Check.Harness.run oracle ~seed:smoke_seed ~count:smoke_count with
      | Ok stats -> check ci "all cases ran" smoke_count stats.cases
      | Error (f, _) ->
          Alcotest.fail (Format.asprintf "%a" Check.Harness.pp_failure f))

let smoke_tests = List.map smoke_case Check.Oracle.all

let () =
  Alcotest.run "check"
    [
      ("prng", prng_tests);
      ("shrink", shrink_tests);
      ("edit", edit_tests);
      ("oracle", oracle_tests);
      ("ocl-planner", ocl_planner_tests);
      ("smoke", smoke_tests);
    ]
