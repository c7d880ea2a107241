(* Obs — the pipeline-wide observability façade.

   One sink per domain receives spans and structured events; one metric
   registry shard per domain receives counters/gauges/histograms (see
   metric.ml for the drain/absorb merge contract). Both are off by default
   (null sink, metrics disabled), and every entry point short-circuits on
   that default before doing any work, so instrumented hot paths stay
   within the < 3% overhead budget (DESIGN.md §7).

   The sink is domain-local (Domain.DLS): a freshly spawned domain always
   starts on the null sink, so pool workers never race a buffering sink
   installed by the main domain. When the submitter of a pool map traces,
   the pool records each item into its own memory sink on whichever domain
   runs it and replays those into the submitter's sink after the join, in
   submission order (see Par.Pool); events carry the emitting domain's id
   either way.

   Call-site discipline: span/event *arguments* are evaluated by the
   caller, so anything more expensive than a field read must be guarded
   with [enabled ()] (for the sink) or [Metric.enabled ()] (for the
   registry) at the call site. *)

module Clock = Clock
module Event = Event
module Hist = Hist
module Metric = Metric
module Span = Span
module Sink = Sink
module Expo = Expo
module Trace = Trace
module Regress = Regress

let current : Sink.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Sink.Null)

let set_sink s = Domain.DLS.set current s
let sink () = Domain.DLS.get current
let enabled () = not (Sink.is_null (Domain.DLS.get current))

(* Back to the quiescent default: null sink, fresh span numbering, metrics
   disabled and emptied — all for the calling domain (the metrics switch is
   global). Tests use this between cases. *)
let reset () =
  set_sink Sink.Null;
  Span.reset ();
  Span.clear_request ();
  Metric.disable ();
  Metric.reset ()

(* Run [f] with [s] installed, restoring the previous sink after — the
   scoped form used by tests and the CLI front-ends. *)
let with_sink s f =
  let prev = sink () in
  set_sink s;
  Fun.protect ~finally:(fun () -> set_sink prev) f

let event ?(cat = "app") ?(args = []) name =
  match Domain.DLS.get current with
  | Sink.Null -> ()
  | s -> Sink.emit s (Span.instant ~cat ~name ~args)

let span ?(cat = "app") ?(args = []) name f =
  match Domain.DLS.get current with
  | Sink.Null -> f ()
  | s -> (
      let emit = Sink.emit s in
      let sp = Span.enter ~cat ~name ~args emit in
      match f () with
      | v ->
          Span.leave sp emit;
          v
      | exception exn ->
          Span.leave sp emit;
          raise exn)

(* Metric shorthands (each checks the metrics switch internally). *)
let incr ?by ?unit_ name labels = Metric.incr ?by ?unit_ name labels
let gauge ?unit_ name labels v = Metric.set ?unit_ name labels v
let observe ?unit_ name labels v = Metric.observe ?unit_ name labels v

(* Request-context shorthands: every event emitted by [f] (on this domain)
   carries the request/session id, so a JSONL trace can be sliced per
   request. [with_request] allocates a fresh process-wide id unless given
   one; both nest and restore the previous context on exit. *)
let with_request ?id f = Span.with_request ?id f
let with_session ~id f = Span.with_session ~id f
let request_id () = Span.request_id ()
let session_id () = Span.session_id ()

(* ---- output files ------------------------------------------------------ *)

(* A symlink, device or pipe (say /dev/stdout) is written through in place:
   renaming a file over it would replace it instead. *)
let in_place path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_REG | Unix.S_DIR -> false
  | Unix.S_LNK | Unix.S_CHR | Unix.S_BLK | Unix.S_FIFO | Unix.S_SOCK -> true
  | exception Unix.Unix_error _ -> false

(* Refuse [path] when its directory is missing, not a directory ("dir/."
   exists only for a directory) or read-only, naming it the way [open_out]
   would. A target written in place reports its own errors when opened. *)
let check_writable path =
  if not (in_place path) then
    try Unix.access (Filename.concat (Filename.dirname path) ".") [ Unix.W_OK ]
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))

(* The one file writer. A new or regular file is replaced: [contents] goes
   to a temporary file beside [path], which is then renamed over it, so a
   failed write leaves the old file whole and no temporary behind. Errors
   are [Sys_error]s naming [path]. *)
let write_file path contents =
  check_writable path;
  if in_place path then
    Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  else
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
        ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
    in
    try
      output_string oc contents;
      close_out oc;
      Sys.rename tmp path
    with e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise
        (match e with Sys_error msg -> Sys_error (path ^ ": " ^ msg) | e -> e)

(* Run [f] recording the requested outputs: [trace] gets every event as
   JSONL ({!Trace.to_jsonl}), [metrics] the Prometheus text exposition of
   the registry ({!Expo.render}; "-" for stdout). Every path is checked
   before [f] runs, so an unwritable one costs no work; the files are
   written when [f] returns (a run that exits early leaves none). Both
   CLIs' [--trace] and [--metrics] go through here. *)
let with_outputs ?trace ?metrics f =
  Option.iter check_writable trace;
  Option.iter (fun p -> if p <> "-" then check_writable p) metrics;
  let capture =
    Option.map
      (fun path ->
        let sink, events = Sink.memory () in
        set_sink sink;
        (path, events))
      trace
  in
  if Option.is_some metrics then Metric.enable ();
  let v = f () in
  (match capture with
  | Some (path, events) ->
      set_sink Sink.Null;
      write_file path (Trace.to_jsonl (events ()));
      Printf.printf "trace written to %s\n" path
  | None -> ());
  (match metrics with
  | None -> ()
  | Some target ->
      Metric.disable ();
      let text = Expo.render () in
      Metric.reset ();
      if target = "-" then print_string text
      else begin
        write_file target text;
        Printf.printf "metrics written to %s\n" target
      end);
  v
