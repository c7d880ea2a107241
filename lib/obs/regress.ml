(* Perf-regression gate over benchmark snapshots.

   A snapshot is the JSON array bench/main.ml writes: rows of
   `{experiment, metric, value, unit}`. [compare_snapshots] lines up an
   old and a new snapshot by (experiment, metric) key and classifies every
   shared row against a relative tolerance; [render] prints the verdict
   table and [gate] reduces it to an exit status (any Regressed → 1).

   Direction comes from the unit, not the metric name, so new experiments
   are gated without touching this file:

     ns/run                    lower is better
     models/s commits/s cases/s x
                               higher is better
     anything else             informational (counters, group.* resource
                               rows, host facts — reported, never gated) *)

type direction = Lower_better | Higher_better | Informational

let direction_of_unit = function
  | "ns/run" -> Lower_better
  | "models/s" | "commits/s" | "cases/s" | "x" -> Higher_better
  | _ -> Informational

type row = { experiment : string; metric : string; value : float; unit_ : string }

type verdict =
  | Improved
  | Ok_within
  | Regressed
  | Info
  | Added  (** only in the new snapshot *)
  | Removed  (** only in the old snapshot *)

type entry = {
  key : string * string;  (** experiment, metric *)
  unit_ : string;
  old_value : float option;
  new_value : float option;
  delta_pct : float option;  (** (new - old) / old * 100 *)
  verdict : verdict;
}

(* ---- snapshot parsing ---------------------------------------------------- *)

let parse (text : string) : (row list, string) result =
  match Flatjson.parse text with
  | Error e -> Error e
  | Ok (Flatjson.Arr items) ->
      let rec rows acc i = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match
              ( Flatjson.str_field "metric" item,
                Flatjson.num_field "value" item,
                Flatjson.str_field "unit" item )
            with
            | Some metric, Some value, Some unit_ ->
                (* optional: every BENCH_*.json row carries one *)
                let experiment =
                  Option.value ~default:""
                    (Flatjson.str_field "experiment" item)
                in
                rows ({ experiment; metric; value; unit_ } :: acc) (i + 1) rest
            | _ -> Error (Printf.sprintf "row %d: not a snapshot row" i))
      in
      rows [] 0 items
  | Ok _ -> Error "snapshot must be a JSON array of rows"

(* ---- comparison ----------------------------------------------------------- *)

let classify ~tolerance unit_ old_v new_v =
  let delta_pct =
    if Float.abs old_v > 0. then (new_v -. old_v) /. Float.abs old_v *. 100.
    else if new_v = old_v then 0.
    else Float.infinity
  in
  let verdict =
    match direction_of_unit unit_ with
    | Informational -> Info
    | Lower_better ->
        if delta_pct > tolerance then Regressed
        else if delta_pct < -.tolerance then Improved
        else Ok_within
    | Higher_better ->
        if delta_pct < -.tolerance then Regressed
        else if delta_pct > tolerance then Improved
        else Ok_within
  in
  (delta_pct, verdict)

(* [tolerance] is a relative percentage: 10. accepts a ±10% drift on every
   gated row. Rows present on only one side are reported (Added/Removed)
   but never fail the gate — a growing benchmark suite is not a
   regression. *)
let compare_snapshots ~tolerance (old_rows : row list) (new_rows : row list) :
    entry list =
  let key r = (r.experiment, r.metric) in
  let olds = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace olds (key r) r) old_rows;
  let news = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace news (key r) r) new_rows;
  let shared_and_added =
    List.map
      (fun nr ->
        match Hashtbl.find_opt olds (key nr) with
        | Some orow ->
            let delta, verdict =
              classify ~tolerance nr.unit_ orow.value nr.value
            in
            {
              key = key nr;
              unit_ = nr.unit_;
              old_value = Some orow.value;
              new_value = Some nr.value;
              delta_pct = Some delta;
              verdict;
            }
        | None ->
            {
              key = key nr;
              unit_ = nr.unit_;
              old_value = None;
              new_value = Some nr.value;
              delta_pct = None;
              verdict = Added;
            })
      new_rows
  in
  let removed =
    List.filter_map
      (fun orow ->
        if Hashtbl.mem news (key orow) then None
        else
          Some
            {
              key = key orow;
              unit_ = orow.unit_;
              old_value = Some orow.value;
              new_value = None;
              delta_pct = None;
              verdict = Removed;
            })
      old_rows
  in
  List.sort
    (fun a b -> compare a.key b.key)
    (shared_and_added @ removed)

(* ---- rendering ------------------------------------------------------------ *)

let verdict_label = function
  | Improved -> "improved"
  | Ok_within -> "ok"
  | Regressed -> "REGRESSED"
  | Info -> "info"
  | Added -> "added"
  | Removed -> "removed"

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

let render ~tolerance (entries : entry list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "bench-diff: %d row(s), tolerance %.0f%%\n"
       (List.length entries) tolerance);
  List.iter
    (fun e ->
      let exp, metric = e.key in
      Buffer.add_string buf
        (Printf.sprintf "  %-9s %-10s %-52s %12s -> %-12s %8s (%s)\n"
           (verdict_label e.verdict) exp metric
           (match e.old_value with Some v -> number v | None -> "-")
           (match e.new_value with Some v -> number v | None -> "-")
           (match e.delta_pct with
           | Some d when Float.is_finite d -> Printf.sprintf "%+.1f%%" d
           | Some _ -> "+inf%"
           | None -> "-")
           e.unit_))
    entries;
  let count v = List.length (List.filter (fun e -> e.verdict = v) entries) in
  Buffer.add_string buf
    (Printf.sprintf
       "summary: %d regressed, %d improved, %d ok, %d info, %d added, %d \
        removed\n"
       (count Regressed) (count Improved) (count Ok_within) (count Info)
       (count Added) (count Removed));
  Buffer.contents buf

let regressed entries =
  List.exists (fun e -> e.verdict = Regressed) entries

(* Exit status for the CLI: 0 clean, 1 when any gated row regressed. *)
let gate entries = if regressed entries then 1 else 0
