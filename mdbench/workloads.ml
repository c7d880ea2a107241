(* The four workloads of the benchmark of record.

   Each op calls the public functions that `mdweave build`, `run` and
   `repo` compose, in the same order, and returns a check that the harness
   runs after the op's timer has stopped. Every input is derived from the
   seed. Inputs whose cost would shift the op mix with the seed (model
   sizes, the shapes of the synthetic PIMs) are fixed; the seed draws
   orders, targets, parameters and which method runs. *)

exception Setup_failed of string

let require cond msg = if not cond then raise (Setup_failed msg)

type check = unit -> bool

type t = {
  name : string;
  warmup : int;  (** ops run on a throwaway stream during set-up *)
  round : int;
      (** ops per stationary round; a timed loop ends on a round boundary *)
  prepare : Random.State.t -> Random.State.t -> int -> unit -> check;
      (** [prepare setup_rng] builds inputs and runs the set-up checks
          (raising [Setup_failed]); [prepare setup_rng rng] is a fresh
          stream. Its [i]th call draws the inputs of op [i] and returns the
          op, which the harness times; the op returns its check. *)
}

(* What the ops emitted, summed for the per-layer report. *)
type outputs = {
  mutable woven_bytes : int;
  mutable xmi_bytes : int;
  mutable snapshot_bytes : int;
  mutable saves : int;
  mutable calls : int;
  mutable events : int;
  mutable applications : int;
}

let out =
  {
    woven_bytes = 0;
    xmi_bytes = 0;
    snapshot_bytes = 0;
    saves = 0;
    calls = 0;
    events = 0;
    applications = 0;
  }

let reset_outputs () =
  out.woven_bytes <- 0;
  out.xmi_bytes <- 0;
  out.snapshot_bytes <- 0;
  out.saves <- 0;
  out.calls <- 0;
  out.events <- 0;
  out.applications <- 0

(* layer handles, one per library call the bench times *)
let xmi_import = Layer.get "xmi.import"
let core_project_create = Layer.get "core.project_create"
let core_refine = Layer.get "core.refine"
let aspects_generate = Layer.get "aspects.generate"
let code_generate = Layer.get "code.generate"
let weaver_weave = Layer.get "weaver.weave"
let interp_run = Layer.get "interp.run"
let code_print = Layer.get "code.print"
let xmi_export = Layer.get "xmi.export"
let repo_save = Layer.get "repository.save"
let repo_load = Layer.get "repository.load"
let repo_snapshot = Layer.get "repository.snapshot"
let mof_edit = Layer.get "mof.edit"
let repo_commit = Layer.get "repository.commit"
let repo_model_at = Layer.get "repository.model_at"
let repo_diff_between = Layer.get "repository.diff_between"
let span = Layer.span
let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- the build chain: `mdweave build` then one `mdweave run` ------------ *)

let refine project step =
  let concern, params = Expect.params step in
  match Core.Pipeline.refine project ~concern ~params with
  | Ok (project, _) -> project
  | Error e -> failwith (Core.Pipeline.error_to_string e)

type built = {
  project : Core.Project.t;
  woven : Weaver.Weave.result;
  outcome : Interp.Machine.outcome;
  text : string;  (** printed woven program *)
  xmi_out : string;  (** refined model *)
  snapshot : string;  (** repository snapshot *)
}

let build xmi steps (c : Expect.call) =
  let m = span xmi_import (fun () -> Xmi.Import.from_string xmi) in
  let project = span core_project_create (fun () -> Core.Project.create m) in
  let project =
    List.fold_left
      (fun p s -> span core_refine (fun () -> refine p s))
      project steps
  in
  let generated =
    span aspects_generate (fun () ->
        match Core.Pipeline.aspects project with
        | Ok g -> g
        | Error e -> failwith (Core.Pipeline.error_to_string e))
  in
  let functional =
    span code_generate (fun () -> Core.Pipeline.functional_code project)
  in
  let woven =
    span weaver_weave (fun () -> Weaver.Weave.weave generated functional)
  in
  let outcome =
    span interp_run (fun () ->
        Interp.Machine.run ~args:c.Expect.args woven.Weaver.Weave.program
          ~class_name:c.cls ~method_name:c.meth)
  in
  let text =
    span code_print (fun () ->
        Code.Printer.program_to_string woven.Weaver.Weave.program)
  in
  let xmi_out =
    span xmi_export (fun () -> Xmi.Export.to_string (Core.Project.model project))
  in
  let snapshot =
    span repo_save (fun () -> Repository.Repo.save project.Core.Project.repo)
  in
  { project; woven; outcome; text; xmi_out; snapshot }

let note_build b =
  out.woven_bytes <- out.woven_bytes + String.length b.text;
  out.xmi_bytes <- out.xmi_bytes + String.length b.xmi_out;
  out.snapshot_bytes <- out.snapshot_bytes + String.length b.snapshot;
  out.saves <- out.saves + 1;
  out.calls <- out.calls + 1;
  out.events <- out.events + List.length b.outcome.Interp.Machine.events;
  out.applications <- out.applications + List.length b.woven.Weaver.Weave.applications

let functional_options =
  { Code.Generator.accessors = true; exclude_stereotypes = Core.Pipeline.exclude_stereotypes }

(* Set-up checks for one built input: the bench's aspects + codegen + weave
   chain must equal Core.Pipeline.build, and every given method must behave
   as the steps predict, with and without a fault. *)
let check_input ~what b steps calls =
  (match Core.Pipeline.build b.project with
  | Ok a ->
      require
        (Code.Junit.equal a.Core.Artifacts.woven b.woven.Weaver.Weave.program)
        (what ^ ": bench chain and Core.Pipeline.build weave different programs")
  | Error e -> raise (Setup_failed (what ^ ": " ^ Core.Pipeline.error_to_string e)));
  List.iter
    (fun (c : Expect.call) ->
      List.iter
        (fun faulted ->
          let faults = if faulted then [ (c.cls, c.meth) ] else [] in
          let got =
            Expect.outcome_of
              (Interp.Machine.run ~faults ~args:c.args b.woven.Weaver.Weave.program
                 ~class_name:c.cls ~method_name:c.meth)
          in
          let want = Expect.expected steps ~faulted c in
          require (Expect.same got want)
            (Printf.sprintf "%s: %s.%s%s ran\n%s\nexpected\n%s" what c.cls c.meth
               (if faulted then " (faulted)" else "")
               (Expect.to_string got) (Expect.to_string want)))
        [ false; true ])
    calls

(* ---- inputs ---------------------------------------------------------------- *)

let fig2_steps =
  [
    Expect.Distribution
      { remote = [ "Account"; "Teller" ]; protocol = "rmi"; registry = "localhost:1099" };
    Expect.Transactions
      { transactional = [ "Account" ]; isolation = "serializable"; propagation = "required" };
    Expect.Security { secured = [ "Teller" ]; roles = [ "admin" ]; auth = "token" };
  ]

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( != ) x) l)))
        l

let class_names n = Array.init n (Printf.sprintf "C%d")

(* [k] distinct class names out of [names] *)
let distinct rng k names =
  let rec go acc =
    if List.length acc = k then acc
    else
      let n = pick rng names in
      go (if List.mem n acc then acc else n :: acc)
  in
  go []

(* Three seeded concern steps over [names] plus logging on every class, in a
   seeded order — the order sets aspect precedence. *)
let draw_steps rng names =
  shuffle rng
    [
      Expect.Distribution
        {
          remote = distinct rng 2 names;
          protocol = pick rng [| "rmi"; "corba"; "ws" |];
          registry = "localhost:1099";
        };
      Expect.Transactions
        {
          transactional = distinct rng 2 names;
          isolation = pick rng [| "read-committed"; "repeatable-read"; "serializable" |];
          propagation = pick rng [| "required"; "requires-new"; "supports" |];
        };
      Expect.Security
        {
          secured = distinct rng 2 names;
          roles = pick rng [| [ "admin" ]; [ "admin"; "auditor" ]; [ "teller" ] |];
          auth = pick rng [| "basic"; "token"; "certificate" |];
        };
      Expect.Logging { level = pick rng [| "debug"; "info"; "warn" |] };
    ]

let targets steps =
  List.concat_map
    (function
      | Expect.Distribution { remote = l; _ }
      | Expect.Transactions { transactional = l; _ }
      | Expect.Security { secured = l; _ } ->
          l
      | Expect.Logging _ -> [])
    steps

(* class name -> each of its methods, as one binding per method *)
let calls_by_class model =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (c : Expect.call) -> Hashtbl.add tbl c.cls c)
    (Expect.calls_of_program (Code.Generator.generate ~options:functional_options model));
  tbl

(* ---- fig2-build -------------------------------------------------------------- *)

type fig2_input = {
  steps : Expect.step list;
  ref_text : string;
  ref_xmi : string;
  ref_snapshot : string;
}

let fig2_prepare _setup_rng =
  let banking = Fixtures.banking () in
  let xmi = Xmi.Export.to_string banking in
  let calls =
    Expect.calls_of_program (Code.Generator.generate ~options:functional_options banking)
  in
  let inputs =
    Array.of_list
      (List.map
         (fun steps ->
           let b = build xmi steps (List.hd calls) in
           check_input ~what:"fig2-build" b steps calls;
           { steps; ref_text = b.text; ref_xmi = b.xmi_out; ref_snapshot = b.snapshot })
         (permutations fig2_steps))
  in
  (* the hand-written E9 trace: deposit under the paper's Fig. 2 order *)
  let deposit =
    List.find (fun (c : Expect.call) -> c.cls = "Account" && c.meth = "deposit") calls
  in
  let b = build xmi fig2_steps deposit in
  let expected = String.trim Expected_trace.deposit in
  require
    (Expect.to_string (Expect.outcome_of b.outcome) = expected)
    "fig2-build: woven Account.deposit differs from expected/deposit.events";
  require
    (Expect.to_string (Expect.expected fig2_steps ~faulted:false deposit) = expected)
    "fig2-build: predicted Account.deposit differs from expected/deposit.events";
  let calls = Array.of_list calls in
  fun rng _i ->
    let input = pick rng inputs in
    let c = pick rng calls in
    fun () ->
      let b = build xmi input.steps c in
      fun () ->
        note_build b;
        String.equal b.text input.ref_text
        && String.equal b.xmi_out input.ref_xmi
        && String.equal b.snapshot input.ref_snapshot
        && Expect.same (Expect.outcome_of b.outcome)
             (Expect.expected input.steps ~faulted:false c)

let fig2_build =
  { name = "fig2-build"; warmup = 150; round = 1; prepare = fig2_prepare }

(* ---- large-build ------------------------------------------------------------- *)

(* Sixteen PIM shapes, 64 to 160 classes with 2-4 attributes and operations
   per class. Fixed, so every seed sees the same sizes; sixteen distinct
   models overflow the OCL extent cache. *)
let large_shapes =
  Array.init 16 (fun i -> (64 + (96 * i / 15), 2 + (i mod 3), 2 + (i / 3 mod 3)))

let large_prepare setup_rng =
  let pims =
    Array.mapi
      (fun i (classes, attrs, ops) ->
        let m = Par.Workload.synthetic ~attrs ~ops ~classes (Printf.sprintf "pim%d" i) in
        (Xmi.Export.to_string m, class_names classes, calls_by_class m))
      large_shapes
  in
  Array.iteri
    (fun i (xmi, names, calls) ->
      let steps = draw_steps setup_rng names in
      let targeted =
        List.concat_map (Hashtbl.find_all calls) (List.sort_uniq String.compare (targets steps))
      in
      let b = build xmi steps (List.hd targeted) in
      check_input ~what:(Printf.sprintf "large-build pim%d" i) b steps targeted)
    pims;
  let order = Array.of_list (shuffle setup_rng (List.init 16 Fun.id)) in
  fun rng i ->
    let xmi, names, calls = pims.(order.(i mod 16)) in
    let steps = draw_steps rng names in
    let cls = pick rng (Array.of_list (targets steps)) in
    let c = pick rng (Array.of_list (Hashtbl.find_all calls cls)) in
    fun () ->
      let b = build xmi steps c in
      fun () ->
        note_build b;
        List.length (Code.Junit.classes b.woven.Weaver.Weave.program) = Array.length names
        && String.length b.xmi_out > 0
        && String.starts_with ~prefix:"MDWREPO1" b.snapshot
        && Expect.same (Expect.outcome_of b.outcome) (Expect.expected steps ~faulted:false c)

let large_build =
  { name = "large-build"; warmup = 10; round = 1; prepare = large_prepare }

(* ---- woven-run --------------------------------------------------------------- *)

type program = {
  woven_program : Code.Junit.program;
  methods : Expect.call array;
  ok : Expect.outcome array;
  faulted : Expect.outcome array;
}

let calls_per_op = 16

let woven_prepare setup_rng =
  let banking = Fixtures.banking () in
  let inputs =
    (Xmi.Export.to_string banking, fig2_steps, Expect.calls_of_program
       (Code.Generator.generate ~options:functional_options banking))
    :: List.map
         (fun classes ->
           let m = Par.Workload.synthetic ~classes (Printf.sprintf "run%d" classes) in
           ( Xmi.Export.to_string m,
             draw_steps setup_rng (class_names classes),
             Expect.calls_of_program (Code.Generator.generate ~options:functional_options m) ))
         [ 24; 48; 96 ]
  in
  let programs =
    Array.of_list
      (List.map
         (fun (xmi, steps, calls) ->
           let b = build xmi steps (List.hd calls) in
           check_input ~what:"woven-run" b steps calls;
           let calls = Array.of_list calls in
           {
             woven_program = b.woven.Weaver.Weave.program;
             methods = calls;
             ok = Array.map (Expect.expected steps ~faulted:false) calls;
             faulted = Array.map (Expect.expected steps ~faulted:true) calls;
           })
         inputs)
  in
  fun rng _i ->
    let picks =
      Array.init calls_per_op (fun _ ->
          let p = pick rng programs in
          let k = Random.State.int rng (Array.length p.methods) in
          let c = p.methods.(k) in
          (p, k, c, if Random.State.int rng 10 = 0 then [ (c.cls, c.meth) ] else []))
    in
    fun () ->
      let outcomes =
        Array.map
          (fun (p, _, (c : Expect.call), faults) ->
            span interp_run (fun () ->
                Interp.Machine.run ~faults ~args:c.args p.woven_program
                  ~class_name:c.cls ~method_name:c.meth))
          picks
      in
      fun () ->
        Array.for_all2
          (fun (p, k, _, faults) o ->
            out.calls <- out.calls + 1;
            out.events <- out.events + List.length o.Interp.Machine.events;
            Expect.same (Expect.outcome_of o)
              (if faults = [] then p.ok.(k) else p.faulted.(k)))
          picks outcomes

let woven_run =
  { name = "woven-run"; warmup = 1200; round = 1; prepare = woven_prepare }

(* ---- repo-edit --------------------------------------------------------------- *)

(* A 100-class base with a seeded 1,000-commit history. One op is one
   client turn on a Service over that history: three seeded edits of the
   head, each committed against the head it was made from, then two reads
   of a seeded earlier commit, each diffed against the head (the 60/40
   write/read mix). A single kind of op keeps the latency distribution
   unimodal. Every 101st op is a save -> load checkpoint, after which the
   next round opens a fresh Service on the same history: persistence makes
   the reset free, so every round sees the same history length. *)
let repo_history = 1000
let repo_round = 101
let turn_commits = 3
let turn_reads = 2

let draw_edit rng class_ids = (pick rng class_ids, Random.State.int rng 3)

let edit (cls, kind) serial m =
  match kind with
  | 0 -> Mof.Builder.rename m cls (Printf.sprintf "K%d" serial)
  | 1 ->
      fst
        (Mof.Builder.add_attribute m ~cls ~name:(Printf.sprintf "a%d" serial)
           ~typ:Mof.Kind.Dt_integer)
  | _ -> Mof.Builder.add_stereotype m cls (Printf.sprintf "s%d" serial)

let same_diff (a : Mof.Diff.t) (b : Mof.Diff.t) =
  Mof.Id.Set.equal a.added b.added
  && Mof.Id.Set.equal a.removed b.removed
  && Mof.Id.Set.equal a.modified b.modified

type session = {
  mutable svc : Repository.Service.t;
  mutable serial : int;
  committed : (int, Mof.Model.t) Hashtbl.t;  (** this round's commits *)
}

let repo_prepare setup_rng =
  let base = Par.Workload.synthetic ~classes:100 "repo" in
  let class_ids =
    Array.of_list
      (List.map (fun (e : Mof.Element.t) -> e.Mof.Element.id) (Mof.Query.classes base))
  in
  let history = Array.make (repo_history + 1) base in
  let repo = ref (Repository.Repo.init base) in
  for id = 1 to repo_history do
    let m = edit (draw_edit setup_rng class_ids) (-id) history.(id - 1) in
    history.(id) <- m;
    repo := Repository.Repo.commit ~message:"edit" m !repo
  done;
  let base_repo = !repo in
  (match Repository.Repo.load (Repository.Repo.save base_repo) with
  | Ok r ->
      require
        (Repository.Repo.size r = repo_history + 1
        && Mof.Model.equal (Repository.Repo.head_model r) history.(repo_history))
        "repo-edit: loaded base history differs"
  | Error e -> raise (Setup_failed ("repo-edit: " ^ e)));
  fun rng ->
    let s =
      { svc = Repository.Service.create base_repo; serial = 0; committed = Hashtbl.create 512 }
    in
    let model_of id =
      if id <= repo_history then history.(id) else Hashtbl.find s.committed id
    in
    let head view = (Repository.Repo.head view).Repository.Commit.id in
    let commit (change, serial) =
      let view = span repo_snapshot (fun () -> Repository.Service.snapshot s.svc) in
      let m = span mof_edit (fun () -> edit change serial (Repository.Repo.head_model view)) in
      let r =
        span repo_commit (fun () ->
            Repository.Service.commit s.svc ~branch:"main" ~expect_head:(head view)
              ~message:"edit" m)
      in
      (head view, m, r)
    in
    let read id =
      let view = span repo_snapshot (fun () -> Repository.Service.snapshot s.svc) in
      let m = span repo_model_at (fun () -> Repository.Repo.model_at view id) in
      let d =
        span repo_diff_between (fun () ->
            Repository.Repo.diff_between view ~from_id:id ~to_id:(head view))
      in
      (id, head view, m, d)
    in
    let commit_ok (parent, m, r) =
      match r with
      | Ok id when id = parent + 1 ->
          Hashtbl.replace s.committed id m;
          true
      | Ok _ | Error _ -> false
    in
    let read_ok (id, head, m, d) =
      match (m, d) with
      | Some m, Some d ->
          let old_model = model_of id in
          Mof.Model.equal m old_model
          && same_diff d (Mof.Diff.compute_scan ~old_model ~new_model:(model_of head))
      | _ -> false
    in
    fun i ->
      if i mod repo_round = repo_round - 1 then fun () ->
        let live = Repository.Service.snapshot s.svc in
        let bytes = span repo_save (fun () -> Repository.Service.save s.svc) in
        let loaded = span repo_load (fun () -> Repository.Repo.load bytes) in
        fun () ->
          out.saves <- out.saves + 1;
          out.snapshot_bytes <- out.snapshot_bytes + String.length bytes;
          let ok =
            match loaded with
            | Ok r ->
                Repository.Repo.size r = Repository.Repo.size live
                && Mof.Model.equal (Repository.Repo.head_model r)
                     (Repository.Repo.head_model live)
            | Error _ -> false
          in
          (* the next round starts again from the base history *)
          s.svc <- Repository.Service.create base_repo;
          Hashtbl.reset s.committed;
          ok
      else begin
        let edits =
          List.init turn_commits (fun _ ->
              s.serial <- s.serial + 1;
              (draw_edit rng class_ids, s.serial))
        in
        let last = head (Repository.Service.snapshot s.svc) + turn_commits in
        let ids = List.init turn_reads (fun _ -> Random.State.int rng (last + 1)) in
        fun () ->
          let commits = List.map commit edits in
          let reads = List.map read ids in
          fun () -> List.for_all commit_ok commits && List.for_all read_ok reads
      end

let repo_edit =
  { name = "repo-edit"; warmup = 30; round = repo_round; prepare = repo_prepare }

let all = [ fig2_build; large_build; woven_run; repo_edit ]
let find name = List.find_opt (fun w -> w.name = name) all
