(* Tests for the versioned model repository: commits, undo/redo, tags,
   branches, history rendering — plus the property suite locking the
   content-addressed rewrite against the naive full-copy baseline and the
   snapshot byte fixpoint. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A repository with three versions: initial banking, +One, +Two. *)
let three_versions () =
  let m0 = Fixtures.banking () in
  let repo = Repository.Repo.init m0 in
  let m1, _ = Mof.Builder.add_class m0 ~owner:(Mof.Model.root m0) ~name:"One" in
  let repo = Repository.Repo.commit ~concern:"a" ~message:"add One" m1 repo in
  let m2, _ = Mof.Builder.add_class m1 ~owner:(Mof.Model.root m1) ~name:"Two" in
  let repo = Repository.Repo.commit ~concern:"b" ~message:"add Two" m2 repo in
  (repo, m0, m1, m2)

let checkout_exn name repo =
  match Repository.Repo.checkout name repo with
  | Ok r -> r
  | Error e -> Alcotest.fail (Repository.Repo.checkout_error_to_string e)

let ok_exn to_string = function
  | Ok r -> r
  | Error e -> Alcotest.fail (to_string e)

(* A fixed history of 320 commits over the banking model, drawn from a
   local LCG so it never depends on Stdlib.Random: adds, renames, typed
   attributes, stereotypes and deletes; undo-then-commit forks; a side
   branch committed to both as the current branch and through [commit_on];
   tags, and a checkout that forks from one. *)
let golden_history () =
  let state = ref 0x5eed in
  let draw bound =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    (!state lsr 7) mod bound
  in
  let edit m i =
    let classes = Array.of_list (Mof.Id.Set.elements (Mof.Model.by_kind m "Class")) in
    let pick () = classes.(draw (Array.length classes)) in
    let name fmt = Printf.sprintf fmt i in
    match draw 6 with
    | 0 -> fst (Mof.Builder.add_class m ~owner:(Mof.Model.root m) ~name:(name "G%d"))
    | 1 -> Mof.Builder.rename m (pick ()) (name "R%d")
    | 2 ->
        fst
          (Mof.Builder.add_attribute m ~cls:(pick ()) ~name:(name "a%d")
             ~typ:(Mof.Kind.Dt_ref (pick ())))
    | 3 -> Mof.Builder.add_stereotype m (pick ()) (Printf.sprintf "s%d" (i mod 4))
    | 4 when Array.length classes > 4 -> Mof.Builder.delete_element m (pick ())
    | _ -> Mof.Builder.set_tag m (Mof.Model.root m) "step" (string_of_int i)
  in
  let module R = Repository.Repo in
  let step r i =
    let r =
      if i mod 9 = 0 then Option.value (R.undo r) ~default:r
      else if i mod 23 = 0 then
        let back = Option.value (R.undo r) ~default:r in
        Option.value (R.redo (Option.value (R.undo back) ~default:back)) ~default:back
      else r
    in
    let r = if i mod 40 = 0 then R.tag (Printf.sprintf "v%d" (i / 40)) r else r in
    let r =
      match i with
      | 120 ->
          let r = ok_exn (fun (`Branch_exists b) -> b) (R.create_branch "side" r) in
          ok_exn R.checkout_error_to_string (R.switch_branch "side" r)
      | 170 -> ok_exn R.checkout_error_to_string (R.switch_branch "main" r)
      | 250 -> ok_exn R.checkout_error_to_string (R.checkout "v2" r)
      | _ -> r
    in
    let message = Printf.sprintf "edit %d" i in
    if i > 170 && i mod 31 = 0 then
      let side = Option.get (R.branch_head r "side") in
      let m = edit (Option.get (R.model_at r side)) i in
      let r = ok_exn R.checkout_error_to_string (R.commit_on ~branch:"side" ~message m r) in
      ok_exn R.checkout_error_to_string (R.switch_branch "main" r)
    else R.commit ~message (edit (R.head_model r) i) r
  in
  let rec go r i = if i > 320 then r else go (step r i) (i + 1) in
  go (R.init (Fixtures.banking ())) 1

let repo_tests =
  [
    Alcotest.test_case "init stores the root commit" `Quick (fun () ->
        let m = Fixtures.banking () in
        let repo = Repository.Repo.init m in
        check ci "one commit" 1 (Repository.Repo.size repo);
        check cb "head model" true (Mof.Model.equal m (Repository.Repo.head_model repo));
        check cb "no undo" false (Repository.Repo.can_undo repo));
    Alcotest.test_case "commits chain and log is head-first" `Quick (fun () ->
        let repo, _, _, m2 = three_versions () in
        check ci "three commits" 3 (Repository.Repo.size repo);
        check cb "head is m2" true (Mof.Model.equal m2 (Repository.Repo.head_model repo));
        let log = Repository.Repo.log repo in
        check (Alcotest.list cs) "messages head-first"
          [ "add Two"; "add One"; "initial model" ]
          (List.map (fun c -> c.Repository.Commit.message) log));
    Alcotest.test_case "diffs recorded against the parent" `Quick (fun () ->
        let repo, _, _, _ = three_versions () in
        let head = Repository.Repo.head repo in
        check ci "one class added" 1
          (Mof.Id.Set.cardinal head.Repository.Commit.diff.Mof.Diff.added));
    Alcotest.test_case "undo and redo move the head" `Quick (fun () ->
        let repo, m0, m1, m2 = three_versions () in
        let repo = Option.get (Repository.Repo.undo repo) in
        check cb "back to m1" true (Mof.Model.equal m1 (Repository.Repo.head_model repo));
        check cb "can redo" true (Repository.Repo.can_redo repo);
        let repo = Option.get (Repository.Repo.undo repo) in
        check cb "back to m0" true (Mof.Model.equal m0 (Repository.Repo.head_model repo));
        check cb "undo exhausted" true (Repository.Repo.undo repo = None);
        let repo = Option.get (Repository.Repo.redo repo) in
        let repo = Option.get (Repository.Repo.redo repo) in
        check cb "forward to m2" true (Mof.Model.equal m2 (Repository.Repo.head_model repo));
        check cb "redo exhausted" true (Repository.Repo.redo repo = None));
    Alcotest.test_case "commit clears the redo path" `Quick (fun () ->
        let repo, _, m1, _ = three_versions () in
        let repo = Option.get (Repository.Repo.undo repo) in
        let m1', _ = Mof.Builder.add_class m1 ~owner:(Mof.Model.root m1) ~name:"Branch" in
        let repo = Repository.Repo.commit ~message:"branch" m1' repo in
        check cb "no redo" false (Repository.Repo.can_redo repo);
        (* nothing is lost: all four commits remain stored *)
        check ci "four commits" 4 (Repository.Repo.size repo));
    Alcotest.test_case "tags name and recall versions" `Quick (fun () ->
        let repo, _, m1, m2 = three_versions () in
        let repo = Option.get (Repository.Repo.undo repo) in
        let repo = Repository.Repo.tag "stable" repo in
        let repo = Option.get (Repository.Repo.redo repo) in
        check cb "at head again" true (Mof.Model.equal m2 (Repository.Repo.head_model repo));
        let repo = checkout_exn "stable" repo in
        check cb "checked out" true (Mof.Model.equal m1 (Repository.Repo.head_model repo));
        check cb "tag listed" true (List.assoc_opt "stable" (Repository.Repo.tags repo) = Some 1);
        match Repository.Repo.checkout "nope" repo with
        | Error (Repository.Repo.Unknown_tag "nope") -> ()
        | Error e ->
            Alcotest.fail (Repository.Repo.checkout_error_to_string e)
        | Ok _ -> Alcotest.fail "checkout of unknown tag succeeded");
    Alcotest.test_case "re-tagging moves the tag" `Quick (fun () ->
        let repo, _, _, _ = three_versions () in
        let repo = Repository.Repo.tag "mark" repo in
        let repo = Option.get (Repository.Repo.undo repo) in
        let repo = Repository.Repo.tag "mark" repo in
        check ci "one binding" 1 (List.length (Repository.Repo.tags repo)));
    Alcotest.test_case "commit after checkout branches from the tag" `Quick
      (fun () ->
        let repo, _, m1, _ = three_versions () in
        let repo = Option.get (Repository.Repo.undo repo) in
        let repo = Repository.Repo.tag "base" repo in
        let repo = Option.get (Repository.Repo.redo repo) in
        let repo = checkout_exn "base" repo in
        let m1', _ = Mof.Builder.add_class m1 ~owner:(Mof.Model.root m1) ~name:"Side" in
        let repo = Repository.Repo.commit ~message:"side" m1' repo in
        let log = Repository.Repo.log repo in
        check (Alcotest.list cs) "side chain"
          [ "side"; "add One"; "initial model" ]
          (List.map (fun c -> c.Repository.Commit.message) log);
        (* the other branch's commits are still stored *)
        check ci "all commits kept" 4 (Repository.Repo.size repo));
    Alcotest.test_case "diff_between" `Quick (fun () ->
        let repo, _, _, _ = three_versions () in
        match Repository.Repo.diff_between repo ~from_id:0 ~to_id:2 with
        | Some d -> check ci "two added" 2 (Mof.Id.Set.cardinal d.Mof.Diff.added)
        | None -> Alcotest.fail "diff failed");
    Alcotest.test_case "diff_between unknown ids" `Quick (fun () ->
        let repo, _, _, _ = three_versions () in
        check cb "none" true (Repository.Repo.diff_between repo ~from_id:0 ~to_id:99 = None));
    Alcotest.test_case "diff_between across a fork agrees with the scan" `Quick
      (fun () ->
        (* head #2, then fork from #1: the two trees differ on both sides
           of the fork, and removals must invert correctly *)
        let repo, _, m1, _ = three_versions () in
        let repo = Option.get (Repository.Repo.undo repo) in
        let m1', side = Mof.Builder.add_class m1 ~owner:(Mof.Model.root m1) ~name:"Side" in
        let repo = Repository.Repo.commit ~message:"side" m1' repo in
        let m1'' = Mof.Builder.delete_element m1' side in
        let repo = Repository.Repo.commit ~message:"drop side" m1'' repo in
        List.iter
          (fun (from_id, to_id) ->
            let between =
              Option.get (Repository.Repo.diff_between repo ~from_id ~to_id)
            in
            let scanned =
              Option.get (Repository.Repo.diff_between_scan repo ~from_id ~to_id)
            in
            check cb
              (Printf.sprintf "diff %d->%d" from_id to_id)
              true
              (Mof.Id.Set.equal between.Mof.Diff.added scanned.Mof.Diff.added
              && Mof.Id.Set.equal between.Mof.Diff.removed
                   scanned.Mof.Diff.removed
              && Mof.Id.Set.equal between.Mof.Diff.modified
                   scanned.Mof.Diff.modified))
          [ (2, 3); (3, 2); (0, 4); (2, 4); (4, 4) ]);
    Alcotest.test_case "model_at rematerializes any stored version" `Quick
      (fun () ->
        let repo, m0, m1, m2 = three_versions () in
        List.iteri
          (fun i m ->
            match Repository.Repo.model_at repo i with
            | Some m' ->
                check cb (Printf.sprintf "version %d" i) true
                  (Mof.Model.equal m m')
            | None -> Alcotest.fail "stored commit not found")
          [ m0; m1; m2 ];
        check cb "unknown id" true (Repository.Repo.model_at repo 99 = None));
    Alcotest.test_case "every version is the model it was committed with" `Quick
      (fun () ->
        let module R = Repository.Repo in
        let repo, m0, m1, m2 = three_versions () in
        List.iteri
          (fun i m ->
            check cb (Printf.sprintf "model_at %d" i) true
              (Option.get (R.model_at repo i) == m))
          [ m0; m1; m2 ];
        let repo = Option.get (R.undo repo) in
        check cb "undo" true (R.head_model repo == m1);
        let repo = Option.get (R.redo repo) in
        check cb "redo" true (R.head_model repo == m2);
        let repo = ok_exn (fun (`Branch_exists b) -> b) (R.create_branch "side" repo) in
        let m3, _ = Mof.Builder.add_class m1 ~owner:(Mof.Model.root m1) ~name:"Side" in
        let repo =
          ok_exn R.checkout_error_to_string
            (R.commit_on ~branch:"side" ~message:"side" m3 repo)
        in
        check cb "commit_on" true (R.head_model repo == m3);
        let repo = ok_exn R.checkout_error_to_string (R.switch_branch "main" repo) in
        check cb "switch_branch" true (R.head_model repo == m2));
    Alcotest.test_case "a 1,000-commit history stays under 10x one model" `Quick
      (fun () ->
        (* Each version keeps its own model, sharing everything unchanged
           with its parent's; an unshared copy per commit would come to
           about 1,000x. *)
        let module R = Repository.Repo in
        let base = Par.Workload.synthetic ~classes:100 "history" in
        let classes =
          Array.of_list (Mof.Id.Set.elements (Mof.Model.by_kind base "Class"))
        in
        let edit m i =
          let cls = classes.(i * 37 mod Array.length classes) in
          match i mod 3 with
          | 0 -> Mof.Builder.rename m cls (Printf.sprintf "K%d" i)
          | 1 ->
              fst
                (Mof.Builder.add_attribute m ~cls ~name:(Printf.sprintf "a%d" i)
                   ~typ:Mof.Kind.Dt_integer)
          | _ -> Mof.Builder.add_stereotype m cls (Printf.sprintf "s%d" i)
        in
        let rec go r i =
          if i > 1000 then r
          else go (R.commit ~message:"edit" (edit (R.head_model r) i) r) (i + 1)
        in
        let live = go (R.init base) 1 in
        let loaded = ok_exn Fun.id (R.load (R.save live)) in
        let words v = Obj.reachable_words (Obj.repr v) in
        let model = words (R.head_model live) in
        List.iter
          (fun (what, r) ->
            let ratio = float_of_int (words r) /. float_of_int model in
            if ratio >= 10. then Alcotest.failf "%s: %.1fx the head model" what ratio)
          [ ("live", live); ("reloaded", loaded) ]);
    Alcotest.test_case "a snapshot is a tenth of a full copy per commit" `Quick
      (fun () ->
        (* 1,000 commits, each renaming one class of a 25-class model: the
           snapshot writes each changed object once, while the full-copy
           baseline pays the whole model at every commit. Byte counts are
           exact, so this is no timing. *)
        let module R = Repository.Repo in
        let module N = Repository.Naive in
        let base = Fixtures.synthetic 25 in
        let classes =
          Array.of_list (Mof.Id.Set.elements (Mof.Model.by_kind base "Class"))
        in
        let rename m i =
          let slot = i mod Array.length classes in
          Mof.Builder.rename m classes.(slot) (Printf.sprintf "C%d_v%d" slot i)
        in
        let rec go cas naive i =
          if i > 1000 then (cas, naive)
          else
            go
              (R.commit ~message:"step" (rename (R.head_model cas) i) cas)
              (N.commit ~message:"step" (rename (N.head_model naive) i) naive)
              (i + 1)
        in
        let cas, naive = go (R.init base) (N.init base) 1 in
        let snapshot = String.length (R.save cas) in
        let full_copy = N.estimated_bytes naive in
        if full_copy < 10 * snapshot then
          Alcotest.failf "full copy %d bytes, snapshot %d bytes" full_copy
            snapshot);
    Alcotest.test_case "identical commits add no objects" `Quick (fun () ->
        let repo, _, _, m2 = three_versions () in
        let objects = Repository.Repo.store_objects repo in
        let bytes = Repository.Repo.store_bytes repo in
        let repo = Repository.Repo.commit ~message:"noop" m2 repo in
        let repo = Repository.Repo.commit ~message:"noop2" m2 repo in
        check ci "objects unchanged" objects (Repository.Repo.store_objects repo);
        check ci "bytes unchanged" bytes (Repository.Repo.store_bytes repo);
        check ci "commits recorded" 5 (Repository.Repo.size repo));
    Alcotest.test_case "golden snapshot bytes of a seeded 320-commit history"
      `Quick (fun () ->
        let repo = golden_history () in
        check ci "commits" 321 (Repository.Repo.size repo);
        let forks =
          List.length
            (List.filter
               (fun id ->
                 match Repository.Repo.find repo id with
                 | Some { Repository.Commit.parent = Some p; _ } -> p <> id - 1
                 | _ -> false)
               (List.init 321 Fun.id))
        in
        check ci "forked commits" 58 forks;
        check ci "tags" 8 (List.length (Repository.Repo.tags repo));
        check (Alcotest.list cs) "branches" [ "main"; "side" ]
          (List.map fst (Repository.Repo.branches repo));
        check cs "snapshot digest" "761579336e19653a15693740b88fbe5d"
          (Digest.to_hex (Digest.string (Repository.Repo.save repo))));
    Alcotest.test_case "published store and sharing metrics match a recount"
      `Quick (fun () ->
        let module R = Repository.Repo in
        Obs.reset ();
        Obs.Metric.enable ();
        let repo, rows =
          Fun.protect ~finally:Obs.reset (fun () ->
              let repo = golden_history () in
              (repo, Obs.Metric.rows ()))
        in
        let published metric =
          match List.find_opt (fun (r : Obs.Metric.row) -> r.metric = metric) rows with
          | Some r -> r.value
          | None -> Alcotest.failf "%s was not published" metric
        in
        let versions = List.init (R.size repo) (fun id -> Option.get (R.find repo id)) in
        (* the store holds each distinct element content of every version *)
        let objects = Hashtbl.create 1024 in
        List.iter
          (fun (c : Repository.Commit.t) ->
            List.iter
              (fun e ->
                let bytes = Mof.Canon.element_bytes e in
                Hashtbl.replace objects (Digest.string bytes) (String.length bytes))
              (Mof.Model.elements c.model))
          versions;
        check (Alcotest.float 0.) "repo.store.objects"
          (float_of_int (Hashtbl.length objects))
          (published "repo.store.objects");
        check (Alcotest.float 0.) "repo.store.bytes"
          (float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) objects 0))
          (published "repo.store.bytes");
        (* each commit after the root shares what its diff did not add or
           modify, in permille *)
        let shared =
          List.filter_map
            (fun (c : Repository.Commit.t) ->
              Option.map
                (fun _ ->
                  let total = Mof.Model.size c.model in
                  let changed =
                    Mof.Id.Set.cardinal c.diff.added + Mof.Id.Set.cardinal c.diff.modified
                  in
                  float_of_int ((total - changed) * 1000 / total))
                c.parent)
            versions
          |> List.sort Float.compare
        in
        let stat s = published ("repo.commit.shared_permille." ^ s) in
        let n = List.length shared in
        check (Alcotest.float 0.) "count" (float_of_int n) (stat "count");
        check (Alcotest.float 0.) "sum" (List.fold_left ( +. ) 0. shared) (stat "sum");
        check (Alcotest.float 0.) "min" (List.hd shared) (stat "min");
        check (Alcotest.float 0.) "max" (List.nth shared (n - 1)) (stat "max");
        (* a quantile reads the upper bound of the bucket holding the
           nearest-rank sample, at most 1/16 above it for samples of 16 or
           more (every sample here is) *)
        List.iter
          (fun (s, q) ->
            let want = List.nth shared (int_of_float (Float.ceil (q *. float_of_int n)) - 1) in
            let got = stat s in
            if not (want <= got && got <= want *. (1. +. (1. /. 16.))) then
              Alcotest.failf "%s: %g, nearest rank %g" s got want)
          [ ("p50", 0.5); ("p99", 0.99) ]);
  ]

let branch_tests =
  [
    Alcotest.test_case "init starts on main" `Quick (fun () ->
        let repo = Repository.Repo.init (Fixtures.banking ()) in
        check cs "branch" "main" (Repository.Repo.branch repo);
        check cb "head" true (Repository.Repo.branch_head repo "main" = Some 0));
    Alcotest.test_case "branch pointer follows the head" `Quick (fun () ->
        let repo, _, _, _ = three_versions () in
        check cb "at #2" true (Repository.Repo.branch_head repo "main" = Some 2);
        let repo = Option.get (Repository.Repo.undo repo) in
        check cb "follows undo" true
          (Repository.Repo.branch_head repo "main" = Some 1));
    Alcotest.test_case "create, switch, and typed errors" `Quick (fun () ->
        let repo, _, _, m2 = three_versions () in
        let repo =
          match Repository.Repo.create_branch "feature" repo with
          | Ok r -> r
          | Error (`Branch_exists _) -> Alcotest.fail "fresh name rejected"
        in
        check cb "duplicate rejected" true
          (match Repository.Repo.create_branch "feature" repo with
          | Error (`Branch_exists "feature") -> true
          | _ -> false);
        let m3, _ =
          Mof.Builder.add_class m2 ~owner:(Mof.Model.root m2) ~name:"Feat"
        in
        let repo =
          match
            Repository.Repo.commit_on ~branch:"feature" ~message:"feat" m3 repo
          with
          | Ok r -> r
          | Error e ->
              Alcotest.fail (Repository.Repo.checkout_error_to_string e)
        in
        check cs "switched to feature" "feature" (Repository.Repo.branch repo);
        check cb "feature advanced" true
          (Repository.Repo.branch_head repo "feature" = Some 3);
        check cb "main untouched" true
          (Repository.Repo.branch_head repo "main" = Some 2);
        let repo =
          match Repository.Repo.switch_branch "main" repo with
          | Ok r -> r
          | Error e ->
              Alcotest.fail (Repository.Repo.checkout_error_to_string e)
        in
        check cb "back on main head" true
          (Mof.Model.equal m2 (Repository.Repo.head_model repo));
        check cb "unknown branch" true
          (match Repository.Repo.switch_branch "nope" repo with
          | Error (Repository.Repo.Unknown_branch "nope") -> true
          | _ -> false);
        check cb "commit_on unknown branch" true
          (match
             Repository.Repo.commit_on ~branch:"nope" ~message:"x" m3 repo
           with
          | Error (Repository.Repo.Unknown_branch "nope") -> true
          | _ -> false));
  ]

(* --- the property suite: CAS repo vs naive full-copy baseline ---------- *)

(* A random op script drives both implementations in lockstep. Ops are
   drawn as small ints; model mutations cycle through add / rename /
   delete so removed and modified ids show up in the trees too. *)
module Props = struct
  type op = Commit of int | Undo | Redo | Tag of int | Checkout of int

  let op_gen =
    let open QCheck2.Gen in
    oneof
      [
        map (fun k -> Commit k) (int_bound 2);
        return Undo;
        return Redo;
        map (fun k -> Tag k) (int_bound 2);
        map (fun k -> Checkout k) (int_bound 3);
      ]

  let script_gen = QCheck2.Gen.(list_size (int_range 1 25) op_gen)

  let tag_name k = Printf.sprintf "t%d" k

  (* One deterministic mutation of [m], distinct per step. *)
  let mutate m ~step ~kind =
    let classes = Mof.Model.by_kind m "Class" in
    match kind with
    | 1 when not (Mof.Id.Set.is_empty classes) ->
        let id = Option.get (Mof.Id.Set.min_elt_opt classes) in
        Mof.Model.update m id (fun e ->
            { e with Mof.Element.name = Printf.sprintf "Renamed%d" step })
    | 2 when Mof.Id.Set.cardinal classes > 1 ->
        Mof.Builder.delete_element m (Mof.Id.Set.max_elt classes)
    | _ ->
        fst
          (Mof.Builder.add_class m ~owner:(Mof.Model.root m)
             ~name:(Printf.sprintf "Step%d" step))

  (* Run the script over both, checking the whole observable surface at
     every step; returns the final pair for further checks. *)
  let run_lockstep m0 script =
    let agree step cas naive =
      let fail fmt =
        Printf.ksprintf
          (fun msg -> QCheck2.Test.fail_reportf "step %d: %s" step msg)
          fmt
      in
      if
        not
          (Mof.Model.equal
             (Repository.Repo.head_model cas)
             (Repository.Naive.head_model naive))
      then fail "head models differ";
      if Repository.Repo.size cas <> Repository.Naive.size naive then
        fail "sizes differ";
      if Repository.Repo.can_undo cas <> Repository.Naive.can_undo naive then
        fail "can_undo differs";
      if Repository.Repo.can_redo cas <> Repository.Naive.can_redo naive then
        fail "can_redo differs";
      let sorted l = List.sort compare l in
      if
        Repository.Repo.tags cas <> sorted (Repository.Naive.tags naive)
      then fail "tags differ";
      let messages_cas =
        List.map
          (fun c -> c.Repository.Commit.message)
          (Repository.Repo.log cas)
      in
      let messages_naive =
        List.map
          (fun (c : Repository.Naive.commit) -> c.message)
          (Repository.Naive.log naive)
      in
      if messages_cas <> messages_naive then fail "log messages differ"
    in
    let step_pair i (cas, naive) op =
      match op with
      | Commit kind ->
          let m =
            mutate (Repository.Repo.head_model cas) ~step:i ~kind
          in
          let message = Printf.sprintf "c%d" i in
          ( Repository.Repo.commit ~message m cas,
            Repository.Naive.commit ~message m naive )
      | Undo -> (
          match (Repository.Repo.undo cas, Repository.Naive.undo naive) with
          | Some c, Some n -> (c, n)
          | None, None -> (cas, naive)
          | _ -> QCheck2.Test.fail_reportf "step %d: undo disagreement" i)
      | Redo -> (
          match (Repository.Repo.redo cas, Repository.Naive.redo naive) with
          | Some c, Some n -> (c, n)
          | None, None -> (cas, naive)
          | _ -> QCheck2.Test.fail_reportf "step %d: redo disagreement" i)
      | Tag k ->
          ( Repository.Repo.tag (tag_name k) cas,
            Repository.Naive.tag (tag_name k) naive )
      | Checkout k -> (
          let name = tag_name k in
          match
            (Repository.Repo.checkout name cas, Repository.Naive.checkout name naive)
          with
          | Ok c, Some n -> (c, n)
          | Error (Repository.Repo.Unknown_tag _), None -> (cas, naive)
          | _ -> QCheck2.Test.fail_reportf "step %d: checkout disagreement" i)
    in
    let _, final =
      List.fold_left
        (fun (i, pair) op ->
          let pair = step_pair i pair op in
          agree i (fst pair) (snd pair);
          (i + 1, pair))
        (0, (Repository.Repo.init m0, Repository.Naive.init m0))
        script
    in
    final

  (* A fork at the head: "side" is created there and main moves on, then
     "side" takes a commit derived from its own head (the diff replays the
     journal) and one derived from main's head (the diff falls back to the
     scan), and main takes one more. *)
  let side_branch r =
    let module R = Repository.Repo in
    let ok = function
      | Ok r -> r
      | Error e -> QCheck2.Test.fail_reportf "%s" (R.checkout_error_to_string e)
    in
    let at branch r = Option.get (R.model_at r (Option.get (R.branch_head r branch))) in
    let r =
      match R.create_branch "side" r with
      | Ok r -> r
      | Error (`Branch_exists b) -> QCheck2.Test.fail_reportf "branch %s exists" b
    in
    let r = R.commit ~message:"main" (mutate (R.head_model r) ~step:100 ~kind:2) r in
    let on branch ~from ~step ~kind r =
      ok (R.commit_on ~branch ~message:branch (mutate (at from r) ~step ~kind) r)
    in
    r
    |> on "side" ~from:"side" ~step:101 ~kind:0
    |> on "side" ~from:"main" ~step:102 ~kind:1
    |> on "main" ~from:"main" ~step:103 ~kind:2

  (* [loaded] must be version [id] as [load] rebuilt it from [original]:
     the same population, root and id counter, and indexes that answer
     every lookup like a model rebuilt from its own elements. [keys]
     gathers the elements of every version, so a bucket left stale by an
     earlier version's replay shows up too. *)
  let same_version ~keys ~id original loaded =
    let fail what = QCheck2.Test.fail_reportf "commit #%d: %s" id what in
    let fresh =
      Mof.Model.of_elements ~root:(Mof.Model.root loaded) ~next:(Mof.Model.next loaded)
        (Mof.Model.elements loaded)
    in
    let agree lookup keys =
      List.for_all (fun k -> Mof.Id.Set.equal (lookup loaded k) (lookup fresh k)) keys
    in
    let names, targets = keys in
    if not (Mof.Model.equal original loaded) then fail "population or root differs"
    else if Mof.Model.next original <> Mof.Model.next loaded then fail "next differs"
    else if not (agree Mof.Model.by_kind Mof.Kind.all_names) then fail "by_kind"
    else if not (agree Mof.Model.by_name names) then fail "by_name"
    else if not (agree Mof.Model.owned_by targets) then fail "owned_by"
    else if not (agree Mof.Model.referrers targets) then fail "referrers"
    else true

  (* The names and ids the elements of [models] mention, each once: the
     keys [same_version] probes. *)
  let index_keys models =
    let module Sset = Set.Make (String) in
    let elements = List.concat_map Mof.Model.elements models in
    let strings f = Sset.elements (Sset.of_list (List.concat_map f elements)) in
    ( strings (fun (e : Mof.Element.t) -> [ e.name ]),
      Mof.Id.Set.elements
        (Mof.Id.Set.of_list
           (List.concat_map
              (fun (e : Mof.Element.t) ->
                (e.id :: Option.to_list e.owner) @ Mof.Kind.refs e.kind)
              elements)) )

  (* Twenty byte-level mutants of a snapshot, drawn from a generator seeded
     by its bytes: an overwritten byte, a truncation, or a run of up to eight
     bytes copied over another position (which swaps object indexes, ids
     and counters between fields). *)
  let mutants s =
    let rng = Random.State.make [| Hashtbl.hash s |] in
    let n = String.length s in
    List.init 20 (fun _ ->
        let b = Bytes.of_string s in
        match Random.State.int rng 3 with
        | 0 ->
            Bytes.set b (Random.State.int rng n) (Char.chr (Random.State.int rng 256));
            Bytes.to_string b
        | 1 -> Bytes.sub_string b 0 (Random.State.int rng n)
        | _ ->
            let src = Random.State.int rng n and dst = Random.State.int rng n in
            Bytes.blit b src b dst (min (1 + Random.State.int rng 8) (n - max src dst));
            Bytes.to_string b)

  let diff_eq (a : Mof.Diff.t) (b : Mof.Diff.t) =
    Mof.Id.Set.equal a.added b.added
    && Mof.Id.Set.equal a.removed b.removed
    && Mof.Id.Set.equal a.modified b.modified

  (* A loaded repository must read back every version it names (its log,
     tags and branches, and the small ids a script's commits take) as a
     model holding exactly its tree's ids, diff each against the head as
     the scan baseline does, undo and redo without raising, and save to
     bytes that load again to the same size and head model. *)
  let check_loaded t =
    let module R = Repository.Repo in
    let head = (R.head t).Repository.Commit.id in
    let ids =
      List.init 64 Fun.id
      @ List.map (fun (c : Repository.Commit.t) -> c.id) (R.log t)
      @ List.map snd (R.tags t)
      @ List.map snd (R.branches t)
    in
    List.iter
      (fun id ->
        match (R.find t id, R.model_at t id) with
        | Some c, Some m -> (
            let held = List.map (fun (e : Mof.Element.t) -> e.id) (Mof.Model.elements m) in
            if held <> List.map fst (Repository.Tree.bindings c.Repository.Commit.tree) then
              QCheck2.Test.fail_reportf "commit #%d: model is not its tree" id;
            match
              ( R.diff_between t ~from_id:id ~to_id:head,
                R.diff_between_scan t ~from_id:id ~to_id:head )
            with
            | Some a, Some b when diff_eq a b -> ()
            | None, None -> ()
            | _ -> QCheck2.Test.fail_reportf "commit #%d: diff_between is not the scan's" id)
        | _ -> ())
      (List.sort_uniq compare ids);
    Option.iter (fun t -> ignore (R.redo t)) (R.undo t);
    match R.load (R.save t) with
    | Error e -> QCheck2.Test.fail_reportf "saved bytes do not load again: %s" e
    | Ok again ->
        if R.size again <> R.size t then
          QCheck2.Test.fail_reportf "saved and loaded again, size %d is not %d"
            (R.size again) (R.size t);
        if not (Mof.Model.equal (R.head_model again) (R.head_model t)) then
          QCheck2.Test.fail_reportf "saved and loaded again, the head model differs"
end

let property_tests =
  let gen = QCheck2.Gen.pair Gen.model_gen Props.script_gen in
  let print (_, script) =
    String.concat ";"
      (List.map
         (function
           | Props.Commit k -> Printf.sprintf "commit%d" k
           | Props.Undo -> "undo"
           | Props.Redo -> "redo"
           | Props.Tag k -> Printf.sprintf "tag%d" k
           | Props.Checkout k -> Printf.sprintf "checkout%d" k)
         script)
  in
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"random scripts agree with the naive baseline"
        ~count:60 ~print gen
        (fun (m0, script) ->
          let cas, naive = Props.run_lockstep m0 script in
          (* and diff_between agrees with the recomputed diffs between
             every pair drawn from root and head *)
          let head = (Repository.Repo.head cas).Repository.Commit.id in
          List.for_all
            (fun (from_id, to_id) ->
              match
                ( Repository.Repo.diff_between cas ~from_id ~to_id,
                  Repository.Naive.diff_between naive ~from_id ~to_id )
              with
              | Some a, Some b -> Props.diff_eq a b
              | None, None -> true
              | _ -> false)
            [ (0, head); (head, 0); (0, 0) ]);
      QCheck2.Test.make ~name:"snapshot save/load/save is a byte fixpoint"
        ~count:40 ~print gen
        (fun (m0, script) ->
          let cas, _ = Props.run_lockstep m0 script in
          let s1 = Repository.Repo.save cas in
          match Repository.Repo.load s1 with
          | Error e -> QCheck2.Test.fail_reportf "load failed: %s" e
          | Ok r2 ->
              if not (String.equal (Repository.Repo.save r2) s1) then
                QCheck2.Test.fail_reportf "save after load differs";
              Props.check_loaded r2;
              (* the reloaded value is observably the same repository *)
              Mof.Model.equal
                (Repository.Repo.head_model cas)
                (Repository.Repo.head_model r2)
              && Repository.Repo.tags cas = Repository.Repo.tags r2
              && Repository.Repo.branches cas = Repository.Repo.branches r2);
      QCheck2.Test.make ~name:"load rebuilds every version of a branched history"
        ~count:40 ~print gen
        (fun (m0, script) ->
          let module R = Repository.Repo in
          let cas, _ = Props.run_lockstep m0 script in
          let r = Props.side_branch cas in
          match R.load (R.save r) with
          | Error e -> QCheck2.Test.fail_reportf "load failed: %s" e
          | Ok loaded ->
              let ids = List.init (R.size r) Fun.id in
              let version r id = Option.get (R.model_at r id) in
              let keys = Props.index_keys (List.map (version r) ids) in
              List.for_all
                (fun id ->
                  Props.same_version ~keys ~id (version r id) (version loaded id))
                ids);
      QCheck2.Test.make
        ~name:"a mutated snapshot loads to an error or to versions matching their trees"
        ~count:50 ~print gen
        (fun (m0, script) ->
          let module R = Repository.Repo in
          let cas, _ = Props.run_lockstep m0 script in
          List.for_all
            (fun data ->
              match R.load data with
              | Error _ -> true
              | Ok t ->
                  Props.check_loaded t;
                  true)
            (Props.mutants (R.save (Props.side_branch cas))));
      QCheck2.Test.make
        ~name:"store objects are monotone and saturate on identical commits"
        ~count:30 ~print gen
        (fun (m0, script) ->
          let cas, _ = Props.run_lockstep m0 script in
          let before = Repository.Repo.store_objects cas in
          let m = Repository.Repo.head_model cas in
          let repeat =
            List.fold_left
              (fun r i ->
                let r' =
                  Repository.Repo.commit
                    ~message:(Printf.sprintf "same%d" i)
                    m r
                in
                if Repository.Repo.store_objects r' < Repository.Repo.store_objects r
                then QCheck2.Test.fail_reportf "store shrank";
                r')
              cas [ 1; 2; 3 ]
          in
          Repository.Repo.store_objects repeat = before);
      QCheck2.Test.make ~name:"load rejects corrupted snapshots" ~count:20
        ~print gen
        (fun (m0, script) ->
          let cas, _ = Props.run_lockstep m0 script in
          let s = Bytes.of_string (Repository.Repo.save cas) in
          (* flip one byte inside an object payload (right after the magic
             and the object count, i.e. in the first digest) *)
          let i = String.length "MDWREPO1" + 2 in
          if Bytes.length s <= i then true
          else begin
            Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0xff));
            match Repository.Repo.load (Bytes.to_string s) with
            | Error _ -> true
            | Ok _ -> false
          end);
    ]

(* --- hand-written snapshots [load] must reject --------------------------- *)

(* LEB128 of all 63 bits of an int, so a negative one takes nine bytes:
   what a hostile snapshot may hold where Mof.Canon.w_int refuses to
   write. [min_int] is 80 80 80 80 80 80 80 80 40. *)
let w_any_int buf n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let root_package name =
  Mof.Element.make ~id:(Mof.Id.of_int 0) ~name ~owner:None
    (Mof.Kind.Package { owned = [] })

(* An MDWREPO1 snapshot written field by field with the Mof.Canon writers,
   over a store holding two versions ("v0", "v1") of a lone root package e0
   followed by the [extra] element payloads (object indexes 2, 3, …). Each
   commit is [(id, parent, removed, set, recorded)]: its tree delta removes
   the ids [removed] and binds each id of [set] to the object at the given
   index, and [recorded] says whether its stored diff lists every id the
   delta changes as modified. Every commit gives root e0 and id counter
   [next_id]. The head is the last commit. Commit ids are written with
   [w_any_int], so they may be negative. *)
let hand_snapshot ?(next = 2) ?(next_id = 1) ?(extra = []) commits =
  let open Mof.Canon in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "MDWREPO1";
  let root = Mof.Id.of_int 0 in
  let objects = List.map element_bytes [ root_package "v0"; root_package "v1" ] @ extra in
  w_int buf (List.length objects);
  List.iter
    (fun bytes ->
      Buffer.add_string buf (Digest.string bytes);
      w_str buf bytes)
    objects;
  w_int buf (List.length commits);
  List.iter
    (fun (id, parent, removed, set, recorded) ->
      w_any_int buf id;
      w_opt w_any_int buf parent;
      w_str buf (Printf.sprintf "c%d" id);
      w_opt w_str buf None;
      w_opt w_str buf None;
      w_id buf root;
      w_int buf next_id;
      w_list w_int buf removed;
      w_list
        (fun buf (eid, obj) ->
          w_int buf eid;
          w_int buf obj)
        buf set;
      w_list w_id buf [];
      w_list w_id buf [];
      w_list w_int buf
        (if recorded then List.sort_uniq compare (removed @ List.map fst set) else []))
    commits;
  let head = match List.rev commits with (id, _, _, _, _) :: _ -> id | [] -> 0 in
  w_any_int buf head;
  w_list w_int buf [];
  w_int buf next;
  w_list w_int buf [];
  w_list
    (fun buf (name, id) ->
      w_str buf name;
      w_any_int buf id)
    buf [ ("main", head) ];
  w_str buf "main";
  Buffer.contents buf

(* [load]'s errors are its own: a message raised inside Mof.Model would say
   nothing about which commit or snapshot field is at fault. *)
let rejects what needle snapshot =
  match Repository.Repo.load snapshot with
  | Ok _ -> Alcotest.failf "%s: load accepted the snapshot" what
  | Error e ->
      if not (contains e needle) then
        Alcotest.failf "%s: expected an error mentioning %S, got %S" what needle e;
      if contains e "Mof.Model" then Alcotest.failf "%s: leaked %S" what e

(* Snapshots that the forward replay in [load] would turn into wrong
   versions, or that would make it allocate what the input cannot hold:
   (name, snapshot, expected error fragment). *)
let hostile_snapshots =
  let root_only = (0, None, [], [ (0, 0) ], false) in
  let huge_count =
    let buf = Buffer.create 16 in
    Buffer.add_string buf "MDWREPO1";
    Mof.Canon.w_int buf (1 lsl 29);
    Buffer.contents buf
  in
  let stray =
    Mof.Element.make ~id:(Mof.Id.of_int 1) ~name:"stray" ~owner:None
      (Mof.Kind.Package { owned = [] })
  in
  (* a root package whose one-byte id 0 is replaced by min_int's nine bytes *)
  let negative_root =
    let bytes = Mof.Canon.element_bytes (root_package "neg") in
    let buf = Buffer.create 32 in
    w_any_int buf min_int;
    Buffer.add_string buf (String.sub bytes 1 (String.length bytes - 1));
    Buffer.contents buf
  in
  [
    ( "an object count the input cannot hold is rejected",
      huge_count,
      "object count 536870912 exceeds" );
    ( "a binding to an object holding another id is rejected",
      (* replayed, e1 would be bound where the tree says e5 *)
      hand_snapshot ~next_id:6 ~extra:[ Mof.Canon.element_bytes stray ]
        [ root_only; (1, Some 0, [], [ (5, 2) ], true) ],
      "commit #1 binds e5 to an object holding e1" );
    ( "a negative commit id is rejected",
      hand_snapshot [ (min_int, None, [], [ (0, 0) ], false) ],
      "varint out of the non-negative int range" );
    ( "a negative element id is rejected",
      hand_snapshot ~extra:[ negative_root ] [ root_only ],
      "varint out of the non-negative int range" );
    ( "a non-head commit without its root package is rejected",
      hand_snapshot ~next:3
        [ root_only; (1, Some 0, [ 0 ], [], true); (2, Some 1, [], [ (0, 1) ], true) ],
      "commit #1 does not hold its root package e0" );
  ]

let load_tests =
  let root_only = (0, None, [], [ (0, 0) ], false) in
  [
    Alcotest.test_case "commit ids out of ascending order are rejected" `Quick (fun () ->
        rejects "out of order" "ascending"
          (hand_snapshot ~next:3
             [
               root_only;
               (2, Some 0, [], [ (0, 1) ], true);
               (1, Some 0, [], [ (0, 1) ], true);
             ]));
    Alcotest.test_case "a second parent-less commit is rejected" `Quick (fun () ->
        rejects "two roots" "without a parent"
          (hand_snapshot [ root_only; (1, None, [], [ (0, 1) ], false) ]));
    Alcotest.test_case "a tree delta outside the stored diff is rejected" `Quick (fun () ->
        (* loaded, commit #1 would change the root while its diff says
           nothing changed, and diff_between 0 1 would come back empty *)
        rejects "unrecorded change" "outside its stored diff"
          (hand_snapshot [ root_only; (1, Some 0, [], [ (0, 1) ], false) ]));
    Alcotest.test_case "a next commit id that reuses a stored id is rejected" `Quick
      (fun () ->
        rejects "stale next id" "next commit id"
          (hand_snapshot ~next:1 [ root_only; (1, Some 0, [], [ (0, 1) ], true) ]));
  ]
  @ List.map
      (fun (name, snapshot, needle) ->
        Alcotest.test_case name `Quick (fun () -> rejects name needle snapshot))
      hostile_snapshots

(* --- the concurrent session front-end ---------------------------------- *)

let service_tests =
  [
    Alcotest.test_case "snapshot isolation across a commit" `Quick (fun () ->
        let repo, _, _, m2 = three_versions () in
        let svc = Repository.Service.create repo in
        let view = Repository.Service.snapshot svc in
        let m3, _ =
          Mof.Builder.add_class m2 ~owner:(Mof.Model.root m2) ~name:"Late"
        in
        (match Repository.Service.commit svc ~branch:"main" ~message:"late" m3 with
        | Ok id -> check ci "new id" 3 id
        | Error e -> Alcotest.fail (Repository.Service.error_to_string e));
        (* the old view is untouched; the service sees the new head *)
        check ci "view size" 3 (Repository.Repo.size view);
        check ci "service size" 4
          (Repository.Repo.size (Repository.Service.snapshot svc));
        check cb "view is stale" true (Repository.Service.snapshot svc != view));
    Alcotest.test_case "expect_head detects a raced commit" `Quick (fun () ->
        let repo, _, _, m2 = three_versions () in
        let svc = Repository.Service.create repo in
        let expected =
          (Repository.Repo.head (Repository.Service.snapshot svc))
            .Repository.Commit.id
        in
        let m3, _ =
          Mof.Builder.add_class m2 ~owner:(Mof.Model.root m2) ~name:"A"
        in
        (match
           Repository.Service.commit svc ~branch:"main" ~expect_head:expected
             ~message:"first" m3
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Repository.Service.error_to_string e));
        (* same expectation again: the branch has moved on *)
        match
          Repository.Service.commit svc ~branch:"main" ~expect_head:expected
            ~message:"second" m3
        with
        | Error (Repository.Service.Stale_parent { expected = e; actual; _ }) ->
            check ci "expected" 2 e;
            check ci "actual" 3 actual
        | Error e -> Alcotest.fail (Repository.Service.error_to_string e)
        | Ok _ -> Alcotest.fail "stale commit accepted");
    Alcotest.test_case "typed errors for unknown branches" `Quick (fun () ->
        let repo, _, _, m2 = three_versions () in
        let svc = Repository.Service.create repo in
        match Repository.Service.commit svc ~branch:"nope" ~message:"x" m2 with
        | Error
            (Repository.Service.Repo_error (Repository.Repo.Unknown_branch "nope"))
          ->
            ()
        | Error e -> Alcotest.fail (Repository.Service.error_to_string e)
        | Ok _ -> Alcotest.fail "commit on unknown branch accepted");
    Alcotest.test_case "concurrent sessions serialize per branch" `Quick
      (fun () ->
        let m0 = Fixtures.banking () in
        let svc = Repository.Service.create (Repository.Repo.init m0) in
        let n_sessions = 3 and n_commits = 5 in
        (* branches are created before any session runs: create_branch
           points at the current head, which moves as sessions commit *)
        List.iter
          (fun s ->
            match
              Repository.Service.create_branch svc (Printf.sprintf "s%d" s)
            with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Repository.Service.error_to_string e))
          (List.init n_sessions Fun.id);
        let session s =
          let branch = Printf.sprintf "s%d" s in
          let rec go i =
                if i > n_commits then Ok ()
                else
                  let view = Repository.Service.snapshot svc in
                  let base =
                    Option.get
                      (Repository.Repo.model_at view
                         (Option.get (Repository.Repo.branch_head view branch)))
                  in
                  let m, _ =
                    Mof.Builder.add_class base ~owner:(Mof.Model.root base)
                      ~name:(Printf.sprintf "S%dC%d" s i)
                  in
                  match
                    Repository.Service.commit svc ~branch
                      ~message:(Printf.sprintf "s%d:%d" s i)
                      m
                  with
                  | Ok _ -> go (i + 1)
                  | Error e -> Error (Repository.Service.error_to_string e)
          in
          go 1
        in
        let domains =
          List.init n_sessions (fun s -> Domain.spawn (fun () -> session s))
        in
        List.iter
          (fun d ->
            match Domain.join d with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg)
          domains;
        let repo = Repository.Service.snapshot svc in
        check ci "all commits stored"
          (1 + (n_sessions * n_commits))
          (Repository.Repo.size repo);
        (* each branch holds its own chain, in order *)
        List.iter
          (fun s ->
            let branch = Printf.sprintf "s%d" s in
            let head = Option.get (Repository.Repo.branch_head repo branch) in
            let rec chain acc id =
              match Repository.Repo.find repo id with
              | None -> acc
              | Some c -> (
                  match c.Repository.Commit.parent with
                  | None -> c.Repository.Commit.message :: acc
                  | Some p -> chain (c.Repository.Commit.message :: acc) p)
            in
            let messages = chain [] head in
            check (Alcotest.list cs)
              (Printf.sprintf "branch %s" branch)
              ("initial model"
              :: List.init n_commits (fun i -> Printf.sprintf "s%d:%d" s (i + 1))
              )
              messages)
          (List.init n_sessions Fun.id));
  ]

let history_tests =
  [
    Alcotest.test_case "render marks the head and shows tags" `Quick (fun () ->
        let repo, _, _, _ = three_versions () in
        let repo = Repository.Repo.tag "v1" repo in
        let text = Repository.History.render repo in
        check cb "head marker" true (contains text "* #2 add Two");
        check cb "tag shown" true (contains text "<v1>");
        check cb "root listed" true (contains text "#0 initial model"));
  ]

(* --- the commit-tree trie against Mof.Id.Map ----------------------------- *)

module Tree_props = struct
  module T = Repository.Tree

  type op = Add of Mof.Id.t * string | Remove of Mof.Id.t

  (* Ids near 0, from a dense small range and near [max_int], so the trie
     branches on its lowest bits, on middle ones and on the highest. *)
  let id_gen =
    QCheck2.Gen.(
      map Mof.Id.of_int
        (oneof [ int_range 0 9; int_range 1000 1031; int_range (max_int - 9) max_int ]))

  let op_gen =
    QCheck2.Gen.(
      frequency
        [
          (3, map2 (fun id k -> Add (id, Printf.sprintf "d%d" k)) id_gen (int_bound 2));
          (1, map (fun id -> Remove id) id_gen);
        ])

  let script_gen = QCheck2.Gen.(list_size (int_range 0 50) op_gen)

  let print_script =
    let print_op = function
      | Add (id, d) -> Printf.sprintf "+%s:%s" (Mof.Id.to_string id) d
      | Remove id -> "-" ^ Mof.Id.to_string id
    in
    fun script -> String.concat " " (List.map print_op script)

  let on_trie t =
    List.fold_left (fun t -> function Add (id, d) -> T.add id d t | Remove id -> T.remove id t) t

  let on_map m =
    List.fold_left
      (fun m -> function
        | Add (id, d) -> Mof.Id.Map.add id d m
        | Remove id -> Mof.Id.Map.remove id m)
      m

  (* [t] answers every read as the map [m] does, at the ids the scripts
     mention and at ids no script can draw. *)
  let same_as_map ~ids t m =
    T.bindings t = Mof.Id.Map.bindings m
    && T.cardinal t = Mof.Id.Map.cardinal m
    && T.max_binding_opt t = Mof.Id.Map.max_binding_opt m
    && List.for_all
         (fun id -> T.find_opt id t = Mof.Id.Map.find_opt id m && T.mem id t = Mof.Id.Map.mem id m)
         (List.map Mof.Id.of_int [ 10; 999; 1032; max_int - 10 ] @ ids)

  (* The classification [T.diff] must give, by folding over both tries'
     bindings. *)
  let classify a b =
    let put id set = Mof.Id.Set.add id set in
    let d =
      List.fold_left
        (fun (d : Mof.Diff.t) (id, da) ->
          match T.find_opt id b with
          | None -> { d with removed = put id d.removed }
          | Some db when String.equal da db -> d
          | Some _ -> { d with modified = put id d.modified })
        Mof.Diff.empty (T.bindings a)
    in
    List.fold_left
      (fun (d : Mof.Diff.t) (id, _) -> if T.mem id a then d else { d with added = put id d.added })
      d (T.bindings b)
end

let tree_tests =
  let open Tree_props in
  let gen = QCheck2.Gen.triple script_gen script_gen script_gen in
  let print (s1, s2, s3) =
    Printf.sprintf "base [%s]; descendant [%s]; independent [%s]" (print_script s1)
      (print_script s2) (print_script s3)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"tries read like Id.Map and diff like a fold over both" ~count:500
         ~print gen (fun (s1, s2, s3) ->
           (* [descendant] is derived from [base] and shares its untouched
              subtrees; [independent] is built from nothing *)
           let base = on_trie T.empty s1 and base_map = on_map Mof.Id.Map.empty s1 in
           let descendant = on_trie base s2 and descendant_map = on_map base_map s2 in
           let independent = on_trie T.empty s3 in
           let ids =
             List.map (function Add (id, _) | Remove id -> id) (s1 @ s2 @ s3)
           in
           if not (same_as_map ~ids base base_map) then
             QCheck2.Test.fail_reportf "base reads differ from Id.Map";
           if not (same_as_map ~ids descendant descendant_map) then
             QCheck2.Test.fail_reportf "descendant reads differ from Id.Map";
           if not (same_as_map ~ids independent (on_map Mof.Id.Map.empty s3)) then
             QCheck2.Test.fail_reportf "independent reads differ from Id.Map";
           List.iter
             (fun (what, a, b) ->
               if not (Props.diff_eq (T.diff a b) (classify a b)) then
                 QCheck2.Test.fail_reportf "diff %s is not the fold's" what)
             [
               ("base -> descendant", base, descendant);
               ("descendant -> base", descendant, base);
               ("base -> independent", base, independent);
               ("independent -> descendant", independent, descendant);
               ("empty -> base", T.empty, base);
               ("descendant -> empty", descendant, T.empty);
               ("empty -> empty", T.empty, T.empty);
               ("base -> base", base, base);
             ];
           true));
    Alcotest.test_case "a negative id is refused" `Quick (fun () ->
        check cb "invalid_arg" true
          (match T.add (Mof.Id.of_int (-1)) "d" T.empty with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

(* Minor-heap words one [diff_between 0 n] allocates on a history of [n]
   commits over a 100-class model in which each commit pair renames the
   next class and then renames it back, so the endpoints hold the same
   model. Allocation counts repeat exactly, so this is no timing. *)
let words_per_diff n =
  let module R = Repository.Repo in
  let m0 = Par.Workload.synthetic ~classes:100 "renames" in
  let classes = Array.of_list (Mof.Id.Set.elements (Mof.Model.by_kind m0 "Class")) in
  let rec go r i =
    if i > n then r
    else
      let cls = classes.((i - 1) / 2 mod Array.length classes) in
      let name =
        if i mod 2 = 1 then Printf.sprintf "Tmp%d" i
        else (Mof.Model.find_exn m0 cls).Mof.Element.name
      in
      go (R.commit ~message:"rename" (Mof.Builder.rename (R.head_model r) cls name) r) (i + 1)
  in
  let r = go (R.init m0) 1 in
  check cb "the endpoints hold the same model" true
    (Mof.Id.Set.is_empty (Mof.Diff.touched (Option.get (R.diff_between r ~from_id:0 ~to_id:n))));
  let runs = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (R.diff_between r ~from_id:0 ~to_id:n)
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

(* Minor-heap words one [diff_between] allocates per differing id, on a
   300-commit history over a 100-class model: commits 1-100 rename each
   class, 101-200 add an attribute to each and 201-300 delete each class's
   first attribute, so the endpoints differ in 100 modified, 100 added and
   100 removed ids. *)
let words_per_differing_id () =
  let module R = Repository.Repo in
  let m0 = Par.Workload.synthetic ~classes:100 "edits" in
  let classes = Array.of_list (Mof.Id.Set.elements (Mof.Model.by_kind m0 "Class")) in
  let edit m i =
    let cls = classes.((i - 1) mod Array.length classes) in
    if i <= 100 then Mof.Builder.rename m cls (Printf.sprintf "R%d" i)
    else if i <= 200 then
      fst
        (Mof.Builder.add_attribute m ~cls ~name:(Printf.sprintf "a%d" i)
           ~typ:Mof.Kind.Dt_integer)
    else Mof.Builder.delete_element m (Option.get (Mof.Id.Set.min_elt_opt (Mof.Model.owned_by m0 cls)))
  in
  let rec go r i =
    if i > 300 then r
    else go (R.commit ~message:"edit" (edit (R.head_model r) i) r) (i + 1)
  in
  let r = go (R.init m0) 1 in
  let d = Option.get (R.diff_between r ~from_id:0 ~to_id:300) in
  check (Alcotest.list ci) "added, removed, modified" [ 100; 100; 100 ]
    (List.map Mof.Id.Set.cardinal [ d.added; d.removed; d.modified ]);
  let runs = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (R.diff_between r ~from_id:0 ~to_id:300)
  done;
  (Gc.minor_words () -. before) /. float_of_int (runs * Mof.Id.Set.cardinal (Mof.Diff.touched d))

let cost_tests =
  [
    Alcotest.test_case "diff_between allocates no more at 1,000 commits than at 10"
      `Quick (fun () ->
        let small = words_per_diff 10 and large = words_per_diff 1000 in
        if large > 1.25 *. small then
          Alcotest.failf "%.0f words per diff at 1,000 commits, %.0f at 10" large small);
    Alcotest.test_case "diff_between allocates under 25 words per differing id"
      `Quick (fun () ->
        let words = words_per_differing_id () in
        if words >= 25. then Alcotest.failf "%.1f words per differing id" words);
  ]

let () =
  Alcotest.run "repository"
    [
      ("repo", repo_tests);
      ("branches", branch_tests);
      ("properties", property_tests);
      ("tree", tree_tests);
      ("cost", cost_tests);
      ("load", load_tests);
      ("service", service_tests);
      ("history", history_tests);
    ]
