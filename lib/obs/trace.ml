(* Offline analysis over JSONL traces — JSONL is the one trace format.

   [to_jsonl] writes events one {!Event.to_json} object per line (what
   every `--trace FILE` holds) and [parse] reads them back; [spans]
   rebuilds the span forest per domain (begin/end pairing is positional:
   events of one domain are totally ordered by [seq], so a stack is
   exact); [summarize] rolls wall/alloc up per category and prints the
   critical path of the heaviest requests; [slice] filters the raw events by
   request or session id; [to_chrome] renders them as a Chrome trace:

     mdweave trace summarize serve.trace.jsonl
     mdweave trace slice serve.trace.jsonl --request 3
     mdweave trace chrome serve.trace.jsonl > serve.trace.json *)

(* ---- writing ------------------------------------------------------------ *)

let to_jsonl (events : Event.t list) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Event.to_json e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* Chrome trace-event document: opens in chrome://tracing or Perfetto.
   Timestamps are microseconds relative to the first event, which keeps the
   numbers small and the viewer timeline anchored at zero. *)
let to_chrome (events : Event.t list) : string =
  let t0 = match events with [] -> 0L | e :: _ -> e.Event.ts_ns in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (e : Event.t) ->
      if i > 0 then Buffer.add_char buf ',';
      let ts_us = Int64.to_float (Int64.sub e.Event.ts_ns t0) /. 1e3 in
      let args =
        (match e.Event.kind with
        | Event.Span_end { wall_ns; alloc_bytes } ->
            [
              ("wall_ns", Event.V_float (Int64.to_float wall_ns));
              ("alloc_bytes", Event.V_float alloc_bytes);
            ]
        | Event.Span_begin | Event.Instant -> [])
        @ (if e.Event.req <> 0 then [ ("req", Event.V_int e.Event.req) ] else [])
        @ (if e.Event.sess <> 0 then [ ("sess", Event.V_int e.Event.sess) ]
           else [])
        @ e.Event.args
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"cat\":%s,\"ph\":%s,%s\"pid\":1,\"tid\":%d,\"ts\":%.3f%s}"
           (Event.json_string e.Event.name)
           (Event.json_string e.Event.cat)
           (Event.json_string (Event.phase e.Event.kind))
           (match e.Event.kind with
           | Event.Instant -> "\"s\":\"t\","
           | Event.Span_begin | Event.Span_end _ -> "")
           (e.Event.dom + 1)
           ts_us
           (if args = [] then "" else ",\"args\":" ^ Event.args_to_json args)))
    events;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* ---- parsing ------------------------------------------------------------ *)

let value_of_json : Flatjson.value -> Event.value option = function
  | Flatjson.Str s -> Some (Event.V_string s)
  | Flatjson.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Some (Event.V_int (int_of_float f))
      else Some (Event.V_float f)
  | Flatjson.Bool b -> Some (Event.V_bool b)
  | Flatjson.Null | Flatjson.Arr _ | Flatjson.Obj _ -> None

let event_of_json (j : Flatjson.value) : (Event.t, string) result =
  match j with
  | Flatjson.Obj _ ->
      let kind =
        match Flatjson.str_field "ph" j with
        | Some "B" -> Ok Event.Span_begin
        | Some "E" ->
            Ok
              (Event.Span_end
                 {
                   wall_ns =
                     Int64.of_float
                       (Option.value ~default:0.
                          (Flatjson.num_field "wall_ns" j));
                   alloc_bytes =
                     Option.value ~default:0.
                       (Flatjson.num_field "alloc_bytes" j);
                 })
        | Some "i" -> Ok Event.Instant
        | Some ph -> Error (Printf.sprintf "unknown phase %S" ph)
        | None -> Error "missing \"ph\""
      in
      Result.map
        (fun kind ->
          {
            Event.seq = Flatjson.int_field "seq" j;
            ts_ns =
              Int64.of_float
                (Option.value ~default:0. (Flatjson.num_field "ts_ns" j));
            dom = Flatjson.int_field "dom" j;
            req = Flatjson.int_field "req" j;
            sess = Flatjson.int_field "sess" j;
            depth = Flatjson.int_field "depth" j;
            cat = Option.value ~default:"" (Flatjson.str_field "cat" j);
            name = Option.value ~default:"" (Flatjson.str_field "name" j);
            kind;
            args =
              (match Flatjson.member "args" j with
              | Some (Flatjson.Obj fields) ->
                  List.filter_map
                    (fun (k, v) ->
                      Option.map (fun v -> (k, v)) (value_of_json v))
                    fields
              | _ -> []);
          })
        kind
  | _ -> Error "not a JSON object"

(* Whole-document parse; blank lines are ignored, any bad line fails with
   its (1-based) line number. *)
let parse (text : string) : (Event.t list, string) result =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else
          let parsed =
            match Flatjson.parse line with
            | Ok j -> event_of_json j
            | Error e -> Error e
          in
          (match parsed with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] (String.split_on_char '\n' text)

(* ---- span forest --------------------------------------------------------- *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_req : int;
  sp_sess : int;
  sp_wall_ns : int64;
  sp_alloc : float;
  sp_children : span list;  (** in trace order *)
}

(* Events are replayed per domain in [seq] order; a begin pushes a frame,
   an end pops it. Unbalanced ends (a truncated capture) close into the
   roots rather than erroring: analysis over a partial trace must still
   answer. *)
let spans (events : Event.t list) : span list =
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun (e : Event.t) ->
      let k = e.Event.dom in
      Hashtbl.replace by_dom k
        (e :: (Option.value ~default:[] (Hashtbl.find_opt by_dom k))))
    events;
  let dom_roots dom_events =
    let ordered =
      List.sort
        (fun (a : Event.t) (b : Event.t) -> compare a.Event.seq b.Event.seq)
        dom_events
    in
    (* stack frames: (begin event, children so far, reversed); [close]
       finishes a frame into its parent frame, or into the roots *)
    let close (b : Event.t) kids ~wall ~alloc stack roots =
      let node =
        {
          sp_name = b.Event.name;
          sp_cat = b.Event.cat;
          sp_req = b.Event.req;
          sp_sess = b.Event.sess;
          sp_wall_ns = wall;
          sp_alloc = alloc;
          sp_children = List.rev kids;
        }
      in
      match stack with
      | [] -> ([], node :: roots)
      | (b', kids') :: rest -> ((b', node :: kids') :: rest, roots)
    in
    let rec walk stack roots = function
      | [] -> (
          (* unterminated frames surface as roots with zero wall *)
          match stack with
          | [] -> List.rev roots
          | (b, kids) :: rest ->
              let stack, roots = close b kids ~wall:0L ~alloc:0. rest roots in
              walk stack roots [])
      | (e : Event.t) :: rest -> (
          match (e.Event.kind, stack) with
          | Event.Span_begin, _ -> walk ((e, []) :: stack) roots rest
          | Event.Instant, _ | Event.Span_end _, [] (* stray end: drop *) ->
              walk stack roots rest
          | Event.Span_end { wall_ns; alloc_bytes }, (b, kids) :: stack' ->
              let stack, roots =
                close b kids ~wall:wall_ns ~alloc:alloc_bytes stack' roots
              in
              walk stack roots rest)
    in
    walk [] [] ordered
  in
  Hashtbl.fold (fun _ evs acc -> dom_roots evs @ acc) by_dom []

(* ---- rollups ------------------------------------------------------------- *)

type cat_row = {
  cr_cat : string;
  cr_spans : int;  (** all spans of the category *)
  cr_wall_ns : int64;  (** category-topmost spans only: no double count *)
  cr_alloc : float;
  cr_instants : int;
}

let by_category (events : Event.t list) : cat_row list =
  let table : (string, cat_row) Hashtbl.t = Hashtbl.create 8 in
  let get cat =
    match Hashtbl.find_opt table cat with
    | Some r -> r
    | None ->
        let r =
          { cr_cat = cat; cr_spans = 0; cr_wall_ns = 0L; cr_alloc = 0.;
            cr_instants = 0 }
        in
        Hashtbl.replace table cat r;
        r
  in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Instant ->
          let r = get e.Event.cat in
          Hashtbl.replace table e.Event.cat
            { r with cr_instants = r.cr_instants + 1 }
      | Event.Span_begin | Event.Span_end _ -> ())
    events;
  (* wall/alloc from the span forest: a span only contributes to its
     category's total when its parent is a different category, so nested
     same-category spans are not double counted *)
  let rec walk parent_cat node =
    let r = get node.sp_cat in
    let top = not (String.equal parent_cat node.sp_cat) in
    Hashtbl.replace table node.sp_cat
      {
        r with
        cr_spans = r.cr_spans + 1;
        cr_wall_ns =
          (if top then Int64.add r.cr_wall_ns node.sp_wall_ns
           else r.cr_wall_ns);
        cr_alloc = (if top then r.cr_alloc +. node.sp_alloc else r.cr_alloc);
      };
    List.iter (walk node.sp_cat) node.sp_children
  in
  List.iter (walk "") (spans events);
  List.sort
    (fun a b -> String.compare a.cr_cat b.cr_cat)
    (Hashtbl.fold (fun _ r acc -> r :: acc) table [])

type request_row = {
  rr_req : int;
  rr_sess : int;
  rr_events : int;
  rr_wall_ns : int64;  (** sum of the request's topmost spans *)
  rr_critical_path : string list;
      (** names down the heaviest child at each level of the heaviest
          topmost span *)
}

let by_request (events : Event.t list) : request_row list =
  let reqs = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      if e.Event.req <> 0 then
        let count, sess =
          Option.value ~default:(0, e.Event.sess)
            (Hashtbl.find_opt reqs e.Event.req)
        in
        let sess = if sess <> 0 then sess else e.Event.sess in
        Hashtbl.replace reqs e.Event.req (count + 1, sess))
    events;
  (* A request's topmost spans are those with no ancestor of the same
     request, wherever they sit in the forest: a batch item's spans nest
     under the submitter's batch span on one domain and are roots on
     another. Kept in forest order. *)
  let tops = Hashtbl.create 8 in
  let rec collect above node =
    let r = node.sp_req in
    if r <> 0 && not (List.mem r above) then
      Hashtbl.replace tops r
        (node :: Option.value ~default:[] (Hashtbl.find_opt tops r));
    List.iter (collect (r :: above)) node.sp_children
  in
  List.iter (collect []) (spans events);
  (* the heaviest span at each level, the first one on ties *)
  let rec critical spans =
    match
      List.fold_left
        (fun best s ->
          match best with
          | Some b when Int64.compare b.sp_wall_ns s.sp_wall_ns >= 0 -> best
          | _ -> Some s)
        None spans
    with
    | Some heaviest -> heaviest.sp_name :: critical heaviest.sp_children
    | None -> []
  in
  Hashtbl.fold
    (fun req (count, sess) acc ->
      let own =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt tops req))
      in
      let wall =
        List.fold_left (fun acc r -> Int64.add acc r.sp_wall_ns) 0L own
      in
      {
        rr_req = req;
        rr_sess = sess;
        rr_events = count;
        rr_wall_ns = wall;
        rr_critical_path = critical own;
      }
      :: acc)
    reqs []
  |> List.sort (fun a b -> compare a.rr_req b.rr_req)

(* ---- summary rendering ---------------------------------------------------- *)

let distinct f events =
  List.sort_uniq compare (List.filter_map f events) |> List.length

(* [summarize] prints at most this many request rows: a traced oracle run
   holds thousands of requests. *)
let max_request_rows = 20

let summarize (events : Event.t list) : string =
  let buf = Buffer.create 1024 in
  let doms =
    distinct (fun (e : Event.t) -> Some e.Event.dom) events
  in
  let reqs =
    distinct
      (fun (e : Event.t) ->
        if e.Event.req = 0 then None else Some e.Event.req)
      events
  in
  let sessions =
    distinct
      (fun (e : Event.t) ->
        if e.Event.sess = 0 then None else Some e.Event.sess)
      events
  in
  Buffer.add_string buf
    (Printf.sprintf
       "trace: %d event(s), %d domain(s), %d request(s), %d session(s)\n"
       (List.length events) doms reqs sessions);
  let cats = by_category events in
  if cats <> [] then begin
    Buffer.add_string buf "per-category (wall is category-topmost spans):\n";
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-10s %5d span(s) %5d event(s)  wall %10Ldns  alloc %12.0fB\n"
             r.cr_cat r.cr_spans r.cr_instants r.cr_wall_ns r.cr_alloc))
      cats
  end;
  let rows = by_request events in
  if rows <> [] then begin
    Buffer.add_string buf "per-request critical path:\n";
    (* the heaviest by wall, ties to the lower id, shown in id order *)
    let shown =
      List.stable_sort (fun a b -> Int64.compare b.rr_wall_ns a.rr_wall_ns) rows
      |> List.filteri (fun i _ -> i < max_request_rows)
      |> List.sort (fun a b -> compare a.rr_req b.rr_req)
    in
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  req %-4d sess %-3d %3d event(s)  wall %10Ldns  %s\n"
             r.rr_req r.rr_sess r.rr_events r.rr_wall_ns
             (if r.rr_critical_path = [] then "-"
              else String.concat " > " r.rr_critical_path)))
      shown;
    let hidden = List.length rows - List.length shown in
    if hidden > 0 then
      Buffer.add_string buf
        (Printf.sprintf "  ... %d more request(s)\n" hidden)
  end;
  Buffer.contents buf

(* ---- slicing -------------------------------------------------------------- *)

(* Keep events matching every given filter; re-rendered by the caller via
   {!Event.to_json}, so a slice of a JSONL trace is again a JSONL trace. *)
let slice ?req ?sess (events : Event.t list) : Event.t list =
  List.filter
    (fun (e : Event.t) ->
      (match req with None -> true | Some r -> e.Event.req = r)
      && match sess with None -> true | Some s -> e.Event.sess = s)
    events
