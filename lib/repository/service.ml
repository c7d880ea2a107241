type t = { state : Repo.t Atomic.t; lock : Mutex.t }

type error =
  | Stale_parent of { branch : string; expected : int; actual : int }
  | Branch_exists of string
  | Repo_error of Repo.checkout_error

let pp_error ppf = function
  | Stale_parent { branch; expected; actual } ->
      Format.fprintf ppf
        "stale parent on branch %S: expected head #%d, found #%d" branch
        expected actual
  | Branch_exists b -> Format.fprintf ppf "branch %S already exists" b
  | Repo_error e -> Repo.pp_checkout_error ppf e

let error_to_string e = Format.asprintf "%a" pp_error e

let create repo = { state = Atomic.make repo; lock = Mutex.create () }

(* Every session op runs in a request context: an ambient id set by the
   caller (e.g. mdweave's serve loop, via [Obs.with_request]) is kept;
   otherwise a fresh process-wide id is allocated for the duration of the
   op. Only when tracing is live — the id exists to slice traces. *)
let in_request f =
  if (not (Obs.enabled ())) || Obs.request_id () <> 0 then f ()
  else Obs.with_request f

let snapshot t =
  in_request @@ fun () ->
  let metrics = Obs.Metric.enabled () in
  let t0 = if metrics then Obs.Clock.now_ns () else 0L in
  let v = Atomic.get t.state in
  if metrics then begin
    Obs.incr "repo.session.reads" [];
    Obs.observe ~unit_:"ns" "repo.session.snapshot.latency_ns" []
      (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0))
  end;
  if Obs.enabled () then Obs.event ~cat:"repo" "session.read";
  v

(* All writers funnel through here: one mutex serializes commits (and so,
   a fortiori, commits per branch), one atomic store publishes. Readers
   never take the lock. *)
let update t f =
  Mutex.protect t.lock (fun () ->
      let repo = Atomic.get t.state in
      match f repo with
      | Error _ as e -> e
      | Ok (repo, v) ->
          Atomic.set t.state repo;
          Ok v)

let commit t ~branch ?expect_head ?transformation ?concern ~message model =
  in_request @@ fun () ->
  Obs.span ~cat:"repo" "session.commit"
    ~args:[ ("branch", Obs.Event.V_string branch) ]
  @@ fun () ->
  let metrics = Obs.Metric.enabled () in
  let t0 = if metrics then Obs.Clock.now_ns () else 0L in
  let result =
    update t (fun repo ->
        match (expect_head, Repo.branch_head repo branch) with
        | Some expected, Some actual when expected <> actual ->
            Error (Stale_parent { branch; expected; actual })
        | _ -> (
            match
              Repo.commit_on ~branch ?transformation ?concern ~message model
                repo
            with
            | Error e -> Error (Repo_error e)
            | Ok repo -> Ok (repo, (Repo.head repo).Commit.id)))
  in
  if metrics then begin
    Obs.observe ~unit_:"ns" "repo.session.commit.latency_ns" []
      (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0));
    Obs.incr
      (match result with
      | Ok _ -> "repo.session.commits"
      | Error _ -> "repo.session.conflicts")
      []
  end;
  (match result with
  | Error (Stale_parent { branch; expected; actual }) ->
      if Obs.enabled () then
        Obs.event ~cat:"repo" "session.stale"
          ~args:
            [
              ("branch", Obs.Event.V_string branch);
              ("expected", Obs.Event.V_int expected);
              ("actual", Obs.Event.V_int actual);
            ]
  | _ -> ());
  result

let create_branch t name =
  update t (fun repo ->
      match Repo.create_branch name repo with
      | Error (`Branch_exists b) -> Error (Branch_exists b)
      | Ok repo -> (
          match Repo.branch_head repo name with
          | Some id -> Ok (repo, id)
          | None -> assert false (* just created *)))

let save t = Repo.save (Atomic.get t.state)
