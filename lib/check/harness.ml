type failure = {
  oracle : string;
  seed : int64;
  case : int;
  message : string;
  repro : string;
  shrunk_ops : int;
}

type stats = { cases : int; elapsed : float }

(* Stable, platform-independent name salt (Hashtbl.hash is not guaranteed
   stable across versions; a seed derived from it would not replay). *)
let salt_of_name name =
  let h = ref 0L in
  String.iter
    (fun c -> h := Int64.add (Int64.mul !h 131L) (Int64.of_int (Char.code c)))
    name;
  Int64.to_int !h

let case_seed ~oracle ~seed i = Prng.mix (Prng.mix seed (salt_of_name oracle)) i

(* Auxiliary stream: a constant offset from the case seed, so a check's
   internal randomness replays identically during shrinking. *)
let aux_of cs = Prng.mix cs 0x5EED

(* An oracle that raises is itself a finding (checkers must be total);
   capture it as a failure with its own tag so shrinking cannot drift
   between a crash and an ordinary relation mismatch. *)
let guard name f =
  try f () with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | exn ->
      Error (Printf.sprintf "[%s-crash] uncaught exception: %s" name
               (Printexc.to_string exn))

let run ?(progress = fun _ -> ()) (oracle : Oracle.t) ~seed ~count =
  Obs.span ~cat:"check" "check.oracle"
    ~args:[ ("oracle", Obs.Event.V_string oracle.Oracle.name) ]
  @@ fun () ->
  let labels = [ ("oracle", oracle.Oracle.name) ] in
  (* wall clock, not [Sys.time]: oracles run on parallel domains and
     process CPU time would charge every domain's work to each of them *)
  let t0 = Unix.gettimeofday () in
  let stats i =
    Obs.incr "check.cases" labels ~by:(float_of_int i);
    { cases = i; elapsed = Unix.gettimeofday () -. t0 }
  in
  let fail ~case ~message ~repro ~shrunk_ops =
    Obs.incr "check.failures" labels;
    if Obs.enabled () then
      Obs.event ~cat:"check" "check.failure"
        ~args:
          [
            ("oracle", Obs.Event.V_string oracle.Oracle.name);
            ("case", Obs.Event.V_int case);
            ("shrunk_ops", Obs.Event.V_int shrunk_ops);
          ];
    { oracle = oracle.Oracle.name; seed; case; message; repro; shrunk_ops }
  in
  match oracle.Oracle.check with
  | Oracle.Model_check check ->
      let rec cases i =
        if i >= count then Ok (stats count)
        else begin
          if i > 0 && i mod 500 = 0 then progress i;
          let cs = case_seed ~oracle:oracle.Oracle.name ~seed i in
          let rng = Prng.make cs in
          let base = Gen.base_script rng in
          let edits = Gen.edit_script rng ~base in
          let aux = aux_of cs in
          match guard oracle.Oracle.name (fun () -> check ~aux ~base ~edits) with
          | Ok () -> cases (i + 1)
          | Error message ->
              let tag = Oracle.tag_of message in
              let fails_like ~base ~edits =
                Obs.incr "check.shrink.attempts" labels;
                match
                  guard oracle.Oracle.name (fun () -> check ~aux ~base ~edits)
                with
                | Ok () -> false
                | Error m -> Oracle.tag_of m = tag
              in
              (* shrink the edit script first (it usually carries the bug),
                 then the base under the shrunk edits *)
              let edits =
                Shrink.list ~still_fails:(fun e -> fails_like ~base ~edits:e) edits
              in
              let base =
                Shrink.list ~still_fails:(fun b -> fails_like ~base:b ~edits) base
              in
              let message =
                match
                  guard oracle.Oracle.name (fun () -> check ~aux ~base ~edits)
                with
                | Error m -> m
                | Ok () -> message
              in
              let repro =
                Printf.sprintf "base script:\n%sedit script:\n%s"
                  (Edit.to_string base) (Edit.to_string edits)
              in
              Error
                ( fail ~case:i ~message ~repro
                    ~shrunk_ops:(List.length base + List.length edits),
                  stats (i + 1) )
        end
      in
      cases 0
  | Oracle.Weave_check check ->
      let rec cases i =
        if i >= count then Ok (stats count)
        else begin
          if i > 0 && i mod 500 = 0 then progress i;
          let cs = case_seed ~oracle:oracle.Oracle.name ~seed i in
          let wc = Gen.weave_case (Prng.make cs) in
          let aux = aux_of cs in
          match guard oracle.Oracle.name (fun () -> check ~aux wc) with
          | Ok () -> cases (i + 1)
          | Error message ->
              let tag = Oracle.tag_of message in
              (* shrink the aspect list; the program is small already *)
              let aspects =
                Shrink.list
                  ~still_fails:(fun aspects ->
                    Obs.incr "check.shrink.attempts" labels;
                    match
                      guard oracle.Oracle.name (fun () ->
                          check ~aux { wc with Gen.aspects })
                    with
                    | Ok () -> false
                    | Error m -> Oracle.tag_of m = tag)
                  wc.Gen.aspects
              in
              let wc = { wc with Gen.aspects } in
              let message =
                match guard oracle.Oracle.name (fun () -> check ~aux wc) with
                | Error m -> m
                | Ok () -> message
              in
              let repro = Format.asprintf "%a" Gen.pp_weave_case wc in
              Error
                ( fail ~case:i ~message ~repro
                    ~shrunk_ops:(List.length aspects),
                  stats (i + 1) )
        end
      in
      cases 0

let pp_failure ppf f =
  Format.fprintf ppf
    "oracle %s failed at case %d (seed %Ld)@.%s@.reproducer (%d ops):@.%s"
    f.oracle f.case f.seed f.message f.shrunk_ops f.repro
