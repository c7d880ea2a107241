(* check — long-run driver for the metamorphic fuzz harness.

   Runs each oracle for a given number of randomized cases, prints
   throughput, and on failure prints the shrunk reproducer and exits 1.
   Every case is replayable from (oracle, seed, case index); see
   lib/check/harness.mli. *)

(* A hidden always-failing oracle: `--oracle selftest-fail` exercises the
   failure path end to end (shrinking, reproducer printing, exit code 1)
   without needing a real bug — the cram suite locks the exit code with it. *)
let selftest_fail : Check.Oracle.t =
  {
    Check.Oracle.name = "selftest-fail";
    check =
      Check.Oracle.Model_check
        (fun ~aux:_ ~base:_ ~edits:_ ->
          Error "[selftest] forced failure (exit-code self-test)");
  }

let main () =
  let seed = ref 42 in
  let count = ref 10_000 in
  let oracles = ref [] in
  let list_only = ref false in
  let quiet = ref false in
  let trace = ref "" in
  let jobs = ref 0 in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "N  run seed (default 42)");
      ("--count", Arg.Set_int count, "N  cases per oracle (default 10000)");
      ( "--oracle",
        Arg.String (fun s -> oracles := s :: !oracles),
        "NAME  run only this oracle (repeatable); default: all" );
      ("--list", Arg.Set list_only, "  list oracle names and exit");
      ("--quiet", Arg.Set quiet, "  suppress per-oracle progress");
      ( "--jobs",
        Arg.Set_int jobs,
        "N  domains for running oracles (default: min of core count and \
         oracle count)" );
      ( "--trace",
        Arg.Set_string trace,
        "FILE  record every event of the run in FILE as JSONL (read it back \
         with mdweave trace summarize, slice or chrome); with '-' the trace \
         alone goes to stdout and the run's report to stderr" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "check [--seed N] [--count N] [--oracle NAME]... [--jobs N] [--trace \
     FILE]";
  if !list_only then begin
    List.iter (fun (o : Check.Oracle.t) -> print_endline o.name) Check.Oracle.all;
    exit 0
  end;
  let selected =
    match !oracles with
    | [] -> Check.Oracle.all
    | names ->
        List.rev_map
          (fun n ->
            match Check.Oracle.find n with
            | Some o -> o
            | None when n = selftest_fail.Check.Oracle.name -> selftest_fail
            | None ->
                Printf.eprintf "check: unknown oracle %S (try --list)\n" n;
                exit 2)
          names
  in
  let seed64 = Int64.of_int !seed in
  let failed = ref false in
  let finish (o : Check.Oracle.t) (s : Check.Harness.stats) =
    let rate =
      if s.elapsed > 0. then float_of_int s.cases /. s.elapsed else 0.
    in
    Printf.printf "\r%-6s %d cases in %.2fs (%.0f cases/s)\n" o.name s.cases
      s.elapsed rate
  in
  let report (o : Check.Oracle.t) = function
    | Ok stats -> finish o stats
    | Error ((f : Check.Harness.failure), stats) ->
        finish o stats;
        failed := true;
        Format.printf "%a@." Check.Harness.pp_failure f
  in
  (* Oracles run through a bounded Par.Pool (results come back in oracle
     order) instead of the old one-unchecked-domain-per-oracle spawn, so
     nine requested oracles no longer mean nine concurrent domains on a
     two-core box; --jobs caps the pool explicitly, and a traced run merges
     every oracle's events at the join. Sequential fallback when there is
     nothing to parallelize, which is also the only path that prints
     per-oracle progress; the joined summary lines are identical either
     way. *)
  let host_domains = Domain.recommended_domain_count () in
  let jobs =
    let cap = if !jobs > 0 then !jobs else host_domains in
    max 1 (min cap (List.length selected))
  in
  let trace = if !trace = "" then None else Some !trace in
  Obs.with_outputs ?trace @@ fun () ->
  (* the run header records the effective parallelism so a logged run is
     reconstructible: the default is host-dependent, not a constant *)
  if not !quiet then
    Printf.printf "run: seed %d, %d cases per oracle, %d oracle(s), jobs %d (host domains %d)\n%!"
      !seed !count (List.length selected) jobs host_domains;
  if jobs < 2 then
    List.iter
      (fun (o : Check.Oracle.t) ->
        let progress i =
          if not !quiet then begin
            Printf.printf "\r%-6s %d/%d" o.name i !count;
            flush stdout
          end
        in
        report o (Check.Harness.run ~progress o ~seed:seed64 ~count:!count))
      selected
  else
    Par.Pool.with_pool ~jobs (fun pool ->
        Par.Pool.map pool
          (fun (o : Check.Oracle.t) ->
            (o, Check.Harness.run o ~seed:seed64 ~count:!count))
          selected)
    |> List.iter (fun (o, r) -> report o r);
  !failed

(* [main] returns whether an oracle failed, once its trace is written. An
   unwritable --trace path raises a [Sys_error] naming it before any case
   runs (see [Obs.with_outputs]); it is reported here, once, instead of
   escaping as a fatal error. *)
let () =
  match main () with
  | false -> ()
  | true -> exit 1
  | exception Sys_error msg ->
      prerr_endline ("check: " ^ msg);
      exit 1
