type check =
  | Model_check of
      (aux:int64 -> base:Edit.script -> edits:Edit.script -> (unit, string) result)
  | Weave_check of (aux:int64 -> Gen.weave_case -> (unit, string) result)

type t = { name : string; check : check }

let tag_of msg =
  if String.length msg > 0 && msg.[0] = '[' then
    match String.index_opt msg ']' with
    | Some i -> String.sub msg 0 (i + 1)
    | None -> msg
  else msg

let build ~base ~edits =
  let base_m, slots =
    Edit.apply_with_slots (Mof.Model.create ~name:"fuzz") base
  in
  let m' = Edit.apply_from base_m ~slots edits in
  (base_m, m')

let pp_violations ppf vs =
  List.iter (fun v -> Format.fprintf ppf "@.  %a" Mof.Wellformed.pp_violation v) vs

(* ---- R1: the id trie's diff vs full scan --------------------------------- *)

(* The base against its edited descendant, which shares every subtree the
   edits did not reach, and both directions against a copy of the edited
   model rebuilt element by element, which shares nothing with either. *)
let check_diff ~aux:_ ~base ~edits =
  let base_m, m' = build ~base ~edits in
  let copy =
    Mof.Model.of_elements ~root:(Mof.Model.root m') ~next:(Mof.Model.next m')
      (Mof.Model.elements m')
  in
  let disagreement (what, old_model, new_model) =
    let trie = Mof.Diff.compute ~old_model ~new_model in
    let scan = Mof.Diff.compute_scan ~old_model ~new_model in
    let eq = Mof.Id.Set.equal in
    if
      eq trie.Mof.Diff.added scan.Mof.Diff.added
      && eq trie.Mof.Diff.removed scan.Mof.Diff.removed
      && eq trie.Mof.Diff.modified scan.Mof.Diff.modified
    then None
    else
      Some
        (Format.asprintf "[diff] %s: trie diff %a disagrees with scan %a" what
           Mof.Diff.pp trie Mof.Diff.pp scan)
  in
  match
    List.find_map disagreement
      [
        ("base -> edited", base_m, m');
        ("base -> unshared copy", base_m, copy);
        ("unshared copy -> base", copy, base_m);
      ]
  with
  | None -> Ok ()
  | Some msg -> Error msg

(* ---- R2: scoped well-formedness vs full check --------------------------- *)

let check_wellformed ~aux:_ ~base ~edits =
  let base_m, m' = build ~base ~edits in
  match Mof.Wellformed.check base_m with
  | _ :: _ as vs ->
      (* the generator promises clean bases; a violation here is a
         generator bug, not a checker bug *)
      Error (Format.asprintf "[gen] base model not well-formed:%a" pp_violations vs)
  | [] ->
      let touched =
        Mof.Diff.touched (Mof.Diff.compute_scan ~old_model:base_m ~new_model:m')
      in
      let scoped = Mof.Wellformed.check_touched m' ~touched in
      let full = Mof.Wellformed.check m' in
      if scoped = full then Ok ()
      else
        Error
          (Format.asprintf
             "[wf] scoped check disagrees with full check@.scoped:%a@.full:%a"
             pp_violations scoped pp_violations full)

(* ---- R3: XMI round trip and char-ref armoring ---------------------------- *)

let check_xmi ~aux ~base ~edits =
  let _, m' = build ~base ~edits in
  let s1 = Xmi.Export.to_string m' in
  match Xmi.Import.parse s1 with
  | Error e -> Error ("[xmi] reimport: " ^ Xmi.Import.error_to_string e)
  | Ok m2 -> (
      let s2 = Xmi.Export.to_string m2 in
      if not (String.equal s1 s2) then
        Error "[xmi] second export is not byte-identical to the first"
      else if not (Mof.Model.equal m' m2) then
        Error "[xmi] reimported model differs structurally"
      else
        let tree = Xmi.Xml_parser.parse s1 in
        let armored = Gen.armor (Prng.make aux) tree in
        match Xmi.Xml_parser.parse armored with
        | exception Xmi.Xml_parser.Xml_error (msg, pos) ->
            Error
              (Printf.sprintf "[xmi] armored rendering: parse error at %d: %s"
                 pos msg)
        | t_armored when not (Xmi.Xml.equal t_armored tree) ->
            Error
              "[xmi] parsing the char-ref-armored rendering differs from \
               parsing the plain one"
        | _ -> (
            (* the armored text has character references and compact
               markup, which the exporter never writes: the importer must
               read it to the same model *)
            match Xmi.Import.parse armored with
            | Error e ->
                Error ("[xmi] armored rendering: " ^ Xmi.Import.error_to_string e)
            | Ok m3 when Mof.Model.equal m' m3 -> Ok ()
            | Ok _ -> Error "[xmi] the armored rendering imports to a different model"))

(* ---- R4: indexes, extents, and an of_elements rebuild vs fresh scans ---- *)

module Sm = Map.Make (String)

let check_query ~aux:_ ~base ~edits =
  let _, m' = build ~base ~edits in
  let elems = Mof.Model.elements m' in
  let bucket m key id =
    Sm.update key
      (fun s -> Some (Mof.Id.Set.add id (Option.value ~default:Mof.Id.Set.empty s)))
      m
  in
  let by_kind, by_name =
    List.fold_left
      (fun (k, n) (e : Mof.Element.t) ->
        (bucket k (Mof.Kind.name e.kind) e.id, bucket n e.name e.id))
      (Sm.empty, Sm.empty) elems
  in
  let fail = ref None in
  let record msg = if !fail = None then fail := Some msg in
  let compare_sm label lookup expected =
    Sm.iter
      (fun key want ->
        let got = lookup m' key in
        if not (Mof.Id.Set.equal got want) then
          record
            (Printf.sprintf "[query] %s index disagrees with scan at key %S"
               label key))
      expected
  in
  compare_sm "by_kind" Mof.Model.by_kind by_kind;
  compare_sm "by_name" Mof.Model.by_name by_name;
  (* classifier extents: Meta.all_instances vs the scan-built extent *)
  Sm.iter
    (fun kname want ->
      match Ocl.Meta.all_instances m' kname with
      | None -> record (Printf.sprintf "[query] no extent for metaclass %S" kname)
      | Some v ->
          let expect =
            Ocl.Value.set
              (List.map (fun id -> Ocl.Value.V_elem id) (Mof.Id.Set.elements want))
          in
          if not (Ocl.Value.equal v expect) then
            record
              (Printf.sprintf "[query] allInstances(%s) disagrees with scan"
                 kname))
    by_kind;
  (match Ocl.Meta.all_instances m' "Element" with
  | None -> record "[query] no extent for Element"
  | Some v ->
      let expect =
        Ocl.Value.set
          (List.map (fun (e : Mof.Element.t) -> Ocl.Value.V_elem e.id) elems)
      in
      if not (Ocl.Value.equal v expect) then
        record "[query] allInstances(Element) disagrees with scan");
  (* a from-scratch rebuild of the store must be indistinguishable *)
  (match
     Mof.Model.of_elements ~root:(Mof.Model.root m') ~next:(Mof.Model.next m')
       elems
   with
  | exception Invalid_argument msg ->
      record (Printf.sprintf "[query] of_elements rebuild rejected: %s" msg)
  | rebuilt ->
      if not (Mof.Model.equal m' rebuilt) then
        record "[query] of_elements rebuild differs from original");
  match !fail with None -> Ok () | Some msg -> Error msg

(* ---- R5: planned OCL evaluation vs naive evaluation ---------------------- *)

(* Troya-style metamorphic guard on the OCL execution path: for random
   models, random constraints and random parameter bindings,
   [Constraint_.check] (planner probes) must agree exactly with
   [Constraint_.check_naive] (raw AST, extent folds) under the same
   bindings, on the base model and then on the edited one. *)

let check_ocl ~aux ~base ~edits =
  let base_m, m' = build ~base ~edits in
  let rng = Prng.make aux in
  let params, constraints = Gen.ocl_constraints rng ~base ~edits in
  let env = Ocl.Env.of_bindings params in
  let pp_outcome = Ocl.Constraint_.pp_outcome in
  let pp_param ppf (name, v) =
    Format.fprintf ppf "@.  %s = %a" name Ocl.Value.pp v
  in
  let compare_on which m (c : Ocl.Constraint_.t) =
    let planned = Ocl.Constraint_.check ~env m c in
    let naive = Ocl.Constraint_.check_naive ~env m c in
    if planned = naive then None
    else
      Some
        (Format.asprintf
           "[ocl] planned check disagrees with naive eval on the %s \
            model@.constraint %s: %s@.bound:%a@.  planned: %a@.  naive:   %a"
           which c.Ocl.Constraint_.name c.Ocl.Constraint_.body
           (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_param)
           params pp_outcome planned pp_outcome naive)
  in
  let rec first_mismatch = function
    | [] -> Ok ()
    | c :: rest -> (
        match compare_on "base" base_m c with
        | Some msg -> Error msg
        | None -> (
            match compare_on "edited" m' c with
            | Some msg -> Error msg
            | None -> first_mismatch rest))
  in
  first_mismatch constraints

(* ---- R6: weaving order is precedence, not list order --------------------- *)

let check_weave ~aux (wc : Gen.weave_case) =
  let rng = Prng.make aux in
  let r1 = Weaver.Weave.weave wc.aspects wc.program in
  let shuffled = Prng.shuffle rng wc.aspects in
  let r2 = Weaver.Weave.weave shuffled wc.program in
  if not (Code.Junit.equal r1.Weaver.Weave.program r2.Weaver.Weave.program)
  then Error "[weave] woven program changed under aspect-list shuffle"
  else if r1.Weaver.Weave.applications <> r2.Weaver.Weave.applications then
    Error "[weave] application report changed under aspect-list shuffle"
  else
    (* The interference analysis makes a strong claim only one way:
       [Independent] promises the two weaves commute. Hold it to that —
       every reported-independent pair must produce the same program in
       either order. (Conflicting is conservative and never checked.) *)
    let report = Weaver.Interference.analyze wc.aspects wc.program in
    let aspect_named name =
      List.find_map
        (fun (g : Aspects.Generator.generated) ->
          let a = g.Aspects.Generator.aspect in
          if String.equal a.Aspects.Aspect.aspect_name name then Some a
          else None)
        wc.aspects
    in
    let commutes a b =
      let once x p = (Weaver.Weave.weave_one x p).Weaver.Weave.program in
      Code.Junit.equal
        (once a (once b wc.program))
        (once b (once a wc.program))
    in
    let rec pairs_ok = function
      | [] -> Ok ()
      | (p : Weaver.Interference.pair) :: rest -> (
          match p.Weaver.Interference.verdict with
          | Weaver.Interference.Conflicting _ -> pairs_ok rest
          | Weaver.Interference.Independent -> (
              match (aspect_named p.left, aspect_named p.right) with
              | Some a, Some b when not (commutes a b) ->
                  Error
                    (Printf.sprintf
                       "[weave] pair %s / %s reported independent but the \
                        weaves do not commute"
                       p.Weaver.Interference.left p.Weaver.Interference.right)
              | _ -> pairs_ok rest))
    in
    pairs_ok report.Weaver.Interference.pairs

(* ---- R9: weaving is class-local ---------------------------------------- *)

(* A method's weave reads only its own class, so the aspect-major fold must
   equal weaving each class alone through the whole aspect chain, with the
   applications regrouped aspect-major. Edits from [Gen.program_edit]
   (rebuilt, renamed, duplicated or deleted classes) vary the programs the
   two weaves see. *)
let weave_class_major (generated : Aspects.Generator.generated list) program =
  let ordered =
    List.rev_map
      (fun (g : Aspects.Generator.generated) -> g.Aspects.Generator.aspect)
      (Weaver.Precedence.order generated)
  in
  let per_aspect = Array.make (List.length ordered) [] in
  let weave_alone c =
    List.fold_left
      (fun (i, c) aspect ->
        let r =
          Weaver.Weave.weave_one aspect
            [ Code.Junit.unit_ ~package:"fuzz" [ Code.Jdecl.Class c ] ]
        in
        per_aspect.(i) <- r.Weaver.Weave.applications :: per_aspect.(i);
        match Code.Junit.classes r.Weaver.Weave.program with
        | [ c ] -> (i + 1, c)
        | _ -> invalid_arg "weave_one changed the number of classes")
      (0, c) ordered
    |> snd
  in
  let program = Code.Junit.map_classes weave_alone program in
  {
    Weaver.Weave.program;
    applications =
      List.concat_map (fun l -> List.concat (List.rev l)) (Array.to_list per_aspect);
  }

let check_weave_local ~aux (wc : Gen.weave_case) =
  let rng = Prng.make aux in
  let agree tag program =
    let r1 = Weaver.Weave.weave wc.aspects program in
    let r2 = weave_class_major wc.aspects program in
    if not (Code.Junit.equal r1.Weaver.Weave.program r2.Weaver.Weave.program)
    then
      Error
        (Printf.sprintf
           "[weave-local] %s: woven program differs from the class-by-class \
            weave"
           tag)
    else if r1.Weaver.Weave.applications <> r2.Weaver.Weave.applications then
      Error
        (Printf.sprintf
           "[weave-local] %s: application report differs from the \
            class-by-class weave"
           tag)
    else Ok ()
  in
  let steps = Prng.range rng 1 3 in
  let rec go program i =
    if i > steps then Ok ()
    else
      let program = Gen.program_edit rng program in
      match agree (Printf.sprintf "after edit %d" i) program with
      | Error _ as e -> e
      | Ok () -> go program (i + 1)
  in
  match agree "initial" wc.program with
  | Error _ as e -> e
  | Ok () -> go wc.program 1

(* ---- R7: batch-parallel ≡ per-item sequential --------------------------- *)

(* Pools are cached per size, so a long differential run drives every case
   through the *same* worker domains — exactly the situation in which leaked
   domain-local state (span counters, metric shards) between batches would
   surface as a divergence. The pool table is domain-local: the
   check driver may run the [par] and [repo] oracles concurrently on
   different pool workers, and Par.Pool rejects two in-flight maps on one
   pool (a shared table would race, too). *)
let pools_key : (int, Par.Pool.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let pool jobs =
  let pools = Domain.DLS.get pools_key in
  match Hashtbl.find_opt pools jobs with
  | Some p -> p
  | None ->
      let p = Par.Pool.create ~jobs () in
      Hashtbl.add pools jobs p;
      p

(* Merged counter totals of a drained shard. No counter depends on which
   worker ran which item, so every one of them must match. *)
let counter_totals (shard : Obs.Metric.shard) =
  List.filter_map
    (fun (key, cell) ->
      match (cell : Obs.Metric.cell) with
      | Obs.Metric.Counter { total; _ } -> Some (key, total)
      | _ -> None)
    shard
  |> List.sort compare

let pp_totals ppf totals =
  List.iter
    (fun ((name, _), total) -> Format.fprintf ppf "@.  %s = %g" name total)
    totals

let same_outcome a b =
  match ((a : Par.Batch.outcome), (b : Par.Batch.outcome)) with
  | Ok p, Ok q -> Mof.Model.equal (Core.Project.model p) (Core.Project.model q)
  | Error e, Error f ->
      Core.Pipeline.error_to_string e = Core.Pipeline.error_to_string f
  | _ -> false

let outcome_tag = function
  | Ok _ -> "ok"
  | Error e -> "error: " ^ Core.Pipeline.error_to_string e

(* A traced batch's events split into items: one group per run of
   consecutive events of one session (item i is session i; the
   [batch.run] span around them has none), in the order the trace lists
   them. Split before normalizing, since [normalize] zeroes [sess]. Then
   [seq] counts from 1 and [depth] from each item's first event: every
   domain numbers its own events, and an item the submitter ran sits
   under [batch.run] while one a worker ran is a root. *)
let item_traces events =
  let renumber = function
    | [] -> []
    | (first : Obs.Event.t) :: _ as events ->
        List.mapi
          (fun i (e : Obs.Event.t) ->
            Obs.Event.normalize
              { e with seq = i + 1; depth = e.depth - first.depth })
          events
  in
  List.fold_left
    (fun groups (e : Obs.Event.t) ->
      match groups with
      | _ when e.sess = 0 -> groups
      | (s, rev) :: rest when s = e.sess -> (s, e :: rev) :: rest
      | _ -> (e.sess, [ e ]) :: groups)
    [] events
  |> List.rev_map (fun (s, rev) -> (s, renumber (List.rev rev)))

(* [f]'s result, and the events it emitted split into items *)
let traced_batch f =
  let sink, events = Obs.Sink.memory () in
  let v = Obs.with_sink sink f in
  (v, item_traces (events ()))

let check_par ~aux ~base ~edits =
  let base_m, slots =
    Edit.apply_with_slots (Mof.Model.create ~name:"fuzz") base
  in
  let m' = Edit.apply_from base_m ~slots edits in
  let half =
    let n = List.length edits / 2 in
    Edit.apply_from base_m ~slots (List.filteri (fun i _ -> i < n) edits)
  in
  let models = [ base_m; m'; half ] in
  let steps =
    let logging =
      Par.Batch.step ~concern:"logging"
        ~params:
          [ ("targets", Transform.Params.V_list [ Transform.Params.V_string "*" ]) ]
    in
    let tx names =
      Par.Batch.step ~concern:"transactions"
        ~params:
          [
            ( "transactional",
              Transform.Params.V_list
                (List.map (fun n -> Transform.Params.V_ident n) names) );
          ]
    in
    let classes =
      List.map (fun c -> c.Mof.Element.name) (Mof.Query.classes m')
    in
    let some_class =
      match classes with [] -> "NoSuchClass" | c :: _ -> c
    in
    match Int64.to_int (Int64.logand aux 0x3L) with
    | 0 -> [ logging ]
    | 1 -> [ tx [ "NoSuchClass" ] ] (* poisoned: precondition must fail *)
    | 2 -> [ logging; tx [ some_class ] ]
    | _ -> [ tx [ some_class ]; logging ]
  in
  (* Window the metric registry so the comparison sees only what the two
     batch runs emit; whatever was accumulating before is put back after. *)
  let was_on = Obs.Metric.enabled () in
  let outer = Obs.Metric.drain () in
  Obs.Metric.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was_on then Obs.Metric.disable ();
      Obs.Metric.absorb outer)
  @@ fun () ->
  let seq, seq_items = traced_batch (fun () -> Par.Batch.refine_all ~steps models) in
  let seq_totals = counter_totals (Obs.Metric.drain ()) in
  let par2, par2_items =
    traced_batch (fun () -> Par.Batch.refine_all ~pool:(pool 2) ~steps models)
  in
  let par2_totals = counter_totals (Obs.Metric.drain ()) in
  let par3 = Par.Batch.refine_all ~pool:(pool 3) ~steps models in
  ignore (Obs.Metric.drain ());
  let sessions items = String.concat "," (List.map (fun (s, _) -> string_of_int s) items) in
  let rec first_mismatch i = function
    | [], [] -> Ok ()
    | o_seq :: rest_seq, o_par :: rest_par ->
        if not (same_outcome o_seq o_par) then
          Error
            (Printf.sprintf
               "[par] item %d: sequential %s but 2-domain pool %s" i
               (outcome_tag o_seq) (outcome_tag o_par))
        else first_mismatch (i + 1) (rest_seq, rest_par)
    | _ ->
        Error
          (Printf.sprintf "[par] batch length changed: %d items in, %d out"
             (List.length seq) (List.length par2))
  in
  match first_mismatch 0 (seq, par2) with
  | Error _ as e -> e
  | Ok () -> (
      (* the pool replays each item's events in one run, in submission
         order, which is what [batch --trace] relies on *)
      if List.map fst par2_items <> List.map fst seq_items then
        Error
          (Printf.sprintf
             "[par] 2-domain trace lists item events by session %s, the \
              sequential one by %s"
             (sessions par2_items) (sessions seq_items))
      else
        match
          List.find_opt
            (fun ((_, ev_seq), (_, ev_par)) -> ev_seq <> ev_par)
            (List.combine seq_items par2_items)
        with
        | Some ((session, ev_seq), (_, ev_par)) ->
            Error
              (Printf.sprintf
                 "[par] item %d: normalized trace differs between sequential \
                  and 2-domain runs (%d vs %d events)"
                 (session - 1) (List.length ev_seq) (List.length ev_par))
        | None ->
            if not (List.for_all2 same_outcome seq par3) then
              Error "[par] 3-domain pool outcomes diverge from sequential"
            else if seq_totals <> par2_totals then
              Error
                (Format.asprintf
                   "[par] merged counters differ@.sequential:%a@.2-domain:%a"
                   pp_totals seq_totals pp_totals par2_totals)
            else Ok ())

(* ---- R8: content-addressed repo ≡ naive full-copy repo ------------------ *)

(* The CAS repository (hash-consed store, shared trees, stored diffs,
   tree-diffing diff_between, binary snapshots, concurrent sessions) against
   the embedded-model baseline it replaced. The whole observable surface
   must agree at every step of a random commit/undo/redo/tag/checkout
   script; then the snapshot round trip must be a byte fixpoint, identical
   commits must not grow the store, and a burst of concurrent sessions
   through a cached pool must linearize per branch. *)

module R = Repository.Repo
module N = Repository.Naive

let repo_tag_name k = Printf.sprintf "t%d" k

(* One deterministic mutation of [m]; cycles through add / rename / delete
   so trees exercise added, modified, and removed bindings. *)
let repo_mutate rng m =
  let classes = Mof.Model.by_kind m "Class" in
  match Prng.int rng 3 with
  | 1 when not (Mof.Id.Set.is_empty classes) ->
      let id = Prng.choose rng (Mof.Id.Set.elements classes) in
      let n = Prng.int rng 10_000 in
      Mof.Model.update m id (fun e ->
          { e with Mof.Element.name = Printf.sprintf "Renamed%d" n })
  | 2 when Mof.Id.Set.cardinal classes > 1 ->
      Mof.Builder.delete_element m (Mof.Id.Set.max_elt classes)
  | _ ->
      fst
        (Mof.Builder.add_class m ~owner:(Mof.Model.root m)
           ~name:(Printf.sprintf "Fuzz%d" (Prng.int rng 1_000_000)))

let repo_agree step cas naive =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "[repo] step %d: %s" step m)) fmt
  in
  if not (Mof.Model.equal (R.head_model cas) (N.head_model naive)) then
    fail "head models differ"
  else if R.size cas <> N.size naive then
    fail "sizes differ: cas %d, naive %d" (R.size cas) (N.size naive)
  else if R.can_undo cas <> N.can_undo naive then fail "can_undo differs"
  else if R.can_redo cas <> N.can_redo naive then fail "can_redo differs"
  else if R.tags cas <> List.sort compare (N.tags naive) then
    fail "tag bindings differ"
  else if
    List.map (fun c -> c.Repository.Commit.message) (R.log cas)
    <> List.map (fun (c : N.commit) -> c.message) (N.log naive)
  then fail "log messages differ"
  else Ok ()

let repo_diff_eq (a : Mof.Diff.t) (b : Mof.Diff.t) =
  Mof.Id.Set.equal a.added b.added
  && Mof.Id.Set.equal a.removed b.removed
  && Mof.Id.Set.equal a.modified b.modified

let ( let* ) r f = Result.bind r f

let repo_script rng cas naive =
  let steps = Prng.range rng 6 24 in
  let rec go i cas naive =
    if i >= steps then Ok (cas, naive)
    else
      let pair =
        match Prng.int rng 6 with
        | 0 | 1 ->
            let m = repo_mutate rng (R.head_model cas) in
            let message = Printf.sprintf "c%d" i in
            Ok (R.commit ~message m cas, N.commit ~message m naive)
        | 2 -> (
            match (R.undo cas, N.undo naive) with
            | Some c, Some n -> Ok (c, n)
            | None, None -> Ok (cas, naive)
            | _ -> Error (Printf.sprintf "[repo] step %d: undo disagreement" i))
        | 3 -> (
            match (R.redo cas, N.redo naive) with
            | Some c, Some n -> Ok (c, n)
            | None, None -> Ok (cas, naive)
            | _ -> Error (Printf.sprintf "[repo] step %d: redo disagreement" i))
        | 4 ->
            let name = repo_tag_name (Prng.int rng 3) in
            Ok (R.tag name cas, N.tag name naive)
        | _ -> (
            let name = repo_tag_name (Prng.int rng 4) in
            match (R.checkout name cas, N.checkout name naive) with
            | Ok c, Some n -> Ok (c, n)
            | Error (R.Unknown_tag _), None -> Ok (cas, naive)
            | _ ->
                Error (Printf.sprintf "[repo] step %d: checkout disagreement" i))
      in
      let* cas, naive = pair in
      let* () = repo_agree i cas naive in
      go (i + 1) cas naive
  in
  go 0 cas naive

(* Commit ids are allocated in order and never deleted. *)
let repo_commit_ids cas = List.init (R.size cas) Fun.id

(* Every (from, to) pair of the script's commits, at most 26²: the forks an
   undo-then-commit leaves give pairs on two branches, whose tries share
   only what both inherited, not only pairs along the root-to-head path. *)
let repo_check_diffs cas naive =
  let ids = repo_commit_ids cas in
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) ids) ids in
  List.fold_left
    (fun acc (from_id, to_id) ->
      let* () = acc in
      match
        ( R.diff_between cas ~from_id ~to_id,
          N.diff_between naive ~from_id ~to_id )
      with
      | Some between, Some reference ->
          if repo_diff_eq between reference then Ok ()
          else
            Error
              (Printf.sprintf
                 "[repo] diff %d->%d disagrees with the naive recompute"
                 from_id to_id)
      | _ -> Error "[repo] diff_between availability differs")
    (Ok ()) pairs

(* The names the elements of every version bear: the keys
   [repo_index_disagreement] probes, so a bucket left stale by an earlier
   version shows up too. *)
let repo_index_keys naive ids =
  List.concat_map
    (fun id ->
      match N.find naive id with
      | Some c ->
          List.map (fun (e : Mof.Element.t) -> e.name) (Mof.Model.elements c.N.model)
      | None -> [])
    ids

(* The first index of [m] that answers a lookup unlike a model rebuilt from
   [m]'s own elements, if any. *)
let repo_index_disagreement names m =
  let fresh =
    Mof.Model.of_elements ~root:(Mof.Model.root m) ~next:(Mof.Model.next m)
      (Mof.Model.elements m)
  in
  let agree lookup keys =
    List.for_all (fun k -> Mof.Id.Set.equal (lookup m k) (lookup fresh k)) keys
  in
  if not (agree Mof.Model.by_kind Mof.Kind.all_names) then Some "by_kind"
  else if not (agree Mof.Model.by_name names) then Some "by_name"
  else None

(* [model_at repo id] for each of [ids] must equal [expected id], the
   [reference] model, and agree with a rebuild of its own elements on every
   index lookup. *)
let repo_check_models ~what repo ~reference ~expected ids keys =
  List.fold_left
    (fun acc id ->
      let* () = acc in
      match (R.model_at repo id, expected id) with
      | Some m, Some e ->
          if not (Mof.Model.equal m e) then
            Error (Printf.sprintf "[repo] %s %d differs from the %s" what id reference)
          else (
            match repo_index_disagreement keys m with
            | Some index ->
                Error
                  (Printf.sprintf
                     "[repo] %s %d: %s disagrees with a model rebuilt \
                      from its elements"
                     what id index)
            | None -> Ok ())
      | _ -> Error (Printf.sprintf "[repo] %s %d availability differs" what id))
    (Ok ()) ids

(* Every stored version as [model_at] returns it must equal the model the
   naive repository embedded for that commit, and answer every index lookup
   like a model rebuilt from its own elements. *)
let repo_check_versions cas naive keys =
  repo_check_models ~what:"model_at" cas ~reference:"naive model"
    ~expected:(fun id -> Option.map (fun c -> c.N.model) (N.find naive id))
    (repo_commit_ids cas) keys

(* [load] builds only the head; every other version is built on its first
   read, from the nearest built ancestor. Reading all of them in a seeded
   order starts those builds from varying ancestors, and each must come out
   as the version committed in process, with indexes that agree. *)
let repo_check_snapshot rng cas keys =
  let s1 = R.save cas in
  match R.load s1 with
  | Error e -> Error (Printf.sprintf "[repo] snapshot load failed: %s" e)
  | Ok r2 ->
      if not (String.equal (R.save r2) s1) then
        Error "[repo] save after load is not byte-identical"
      else if not (Mof.Model.equal (R.head_model cas) (R.head_model r2)) then
        Error "[repo] reloaded head model differs"
      else if R.tags cas <> R.tags r2 || R.branches cas <> R.branches r2 then
        Error "[repo] reloaded tags or branches differ"
      else
        repo_check_models ~what:"reloaded model_at" r2
          ~reference:"version committed in process" ~expected:(R.model_at cas)
          (Prng.shuffle rng (repo_commit_ids cas))
          keys

let repo_check_sharing cas =
  let objects = R.store_objects cas and bytes = R.store_bytes cas in
  let m = R.head_model cas in
  let r = R.commit ~message:"same" m (R.commit ~message:"same" m cas) in
  if R.store_objects r <> objects || R.store_bytes r <> bytes then
    Error "[repo] identical commits grew the object store"
  else Ok ()

(* Three sessions, each committing twice to its own branch through a
   cached pool: afterwards the service must hold every commit, and each
   branch's chain must read exactly [s:1; s:2] on top of what was there —
   the per-branch linearization the one-writer-lock promises. *)
let repo_check_sessions cas =
  let svc = Repository.Service.create cas in
  let base_size = R.size (Repository.Service.snapshot svc) in
  let branch s = Printf.sprintf "sess%d" s in
  let sessions = [ 0; 1; 2 ] in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        match Repository.Service.create_branch svc (branch s) with
        | Ok _ -> Ok ()
        | Error e ->
            Error ("[repo] create_branch: " ^ Repository.Service.error_to_string e))
      (Ok ()) sessions
  in
  let run s =
    let rec go i =
      if i > 2 then Ok ()
      else
        let view = Repository.Service.snapshot svc in
        match R.branch_head view (branch s) with
        | None -> Error "branch vanished"
        | Some head_id -> (
            match R.model_at view head_id with
            | None -> Error "branch head not stored"
            | Some base -> (
                let m, _ =
                  Mof.Builder.add_class base ~owner:(Mof.Model.root base)
                    ~name:(Printf.sprintf "S%dC%d" s i)
                in
                match
                  Repository.Service.commit svc ~branch:(branch s)
                    ~message:(Printf.sprintf "s%d:%d" s i)
                    m
                with
                | Ok _ -> go (i + 1)
                | Error e -> Error (Repository.Service.error_to_string e)))
    in
    go 1
  in
  let results = Par.Pool.map (pool 3) run sessions in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        match r with
        | Ok () -> Ok ()
        | Error msg -> Error ("[repo] session failed: " ^ msg))
      (Ok ()) results
  in
  let final = Repository.Service.snapshot svc in
  if R.size final <> base_size + 6 then
    Error
      (Printf.sprintf "[repo] expected %d commits after sessions, found %d"
         (base_size + 6) (R.size final))
  else
    List.fold_left
      (fun acc s ->
        let* () = acc in
        match R.branch_head final (branch s) with
        | None -> Error "[repo] session branch missing after run"
        | Some head_id ->
            let rec chain acc id =
              match R.find final id with
              | None -> acc
              | Some c -> (
                  match c.Repository.Commit.parent with
                  | None -> c.Repository.Commit.message :: acc
                  | Some p -> chain (c.Repository.Commit.message :: acc) p)
            in
            let tail =
              let all = chain [] head_id in
              let n = List.length all in
              List.filteri (fun i _ -> i >= n - 2) all
            in
            if tail <> [ Printf.sprintf "s%d:1" s; Printf.sprintf "s%d:2" s ]
            then Error (Printf.sprintf "[repo] branch %s chain out of order" (branch s))
            else Ok ())
      (Ok ()) sessions

let check_repo ~aux ~base ~edits =
  let base_m, m' = build ~base ~edits in
  let rng = Prng.make aux in
  let cas = R.init base_m and naive = N.init base_m in
  (* first commit is the edited model itself, which shares every subtree
     the edits did not reach with the base *)
  let cas = R.commit ~message:"edits" m' cas
  and naive = N.commit ~message:"edits" m' naive in
  let* () = repo_agree (-1) cas naive in
  let* cas, naive = repo_script rng cas naive in
  let* () = repo_check_diffs cas naive in
  let keys = repo_index_keys naive (repo_commit_ids cas) in
  let* () = repo_check_versions cas naive keys in
  let* () = repo_check_snapshot rng cas keys in
  let* () = repo_check_sharing cas in
  repo_check_sessions cas

(* ---- R10: pointcut deciders ≡ the pointcut AST walk ---------------------- *)

(* Every shadow of the case program × every pointcut in sight (the case's
   advice plus random ones over the full pattern vocabulary): the
   production decider must agree with [Matcher.matches_tree]. *)
let check_matcher ~aux (wc : Gen.weave_case) =
  let rng = Prng.make aux in
  let shadows = Weaver.Joinpoint.all_shadows wc.program in
  let pointcuts =
    List.concat_map
      (fun (g : Aspects.Generator.generated) ->
        List.map
          (fun (a : Aspects.Advice.t) -> a.Aspects.Advice.pointcut)
          g.Aspects.Generator.aspect.Aspects.Aspect.advices)
      wc.aspects
    @ List.init 4 (fun _ -> Gen.random_pointcut rng)
  in
  let mismatch =
    List.find_map
      (fun pc ->
        let decide = Weaver.Matcher.matches pc in
        List.find_map
          (fun shadow ->
            let decided = decide shadow in
            let tree = Weaver.Matcher.matches_tree pc shadow in
            if decided = tree then None
            else
              Some
                (Printf.sprintf
                   "[matcher] decider disagrees with tree walk: %s (decider \
                    %b, tree %b)"
                   (Aspects.Pointcut.to_string pc) decided tree))
          shadows)
      pointcuts
  in
  match mismatch with Some msg -> Error msg | None -> Ok ()

let all =
  [
    { name = "diff"; check = Model_check check_diff };
    { name = "wf"; check = Model_check check_wellformed };
    { name = "xmi"; check = Model_check check_xmi };
    { name = "query"; check = Model_check check_query };
    { name = "ocl"; check = Model_check check_ocl };
    { name = "weave"; check = Weave_check check_weave };
    { name = "weave-local"; check = Weave_check check_weave_local };
    { name = "par"; check = Model_check check_par };
    { name = "repo"; check = Model_check check_repo };
    { name = "matcher"; check = Weave_check check_matcher };
  ]

let find name = List.find_opt (fun o -> o.name = name) all
