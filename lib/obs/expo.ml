(* Prometheus-style text exposition of the metric registry: the one
   metrics output, what `--metrics FILE` writes.

   One deterministic document (entries sorted by metric name, then label
   string): counters and gauges render as single samples, histograms as
   the standard `_bucket{le="..."}`/`_sum`/`_count` triple with cumulative
   bucket counts, only the non-empty buckets plus the mandatory
   `le="+Inf"` emitted — the log-linear layout has 960 buckets and a
   latency distribution touches a handful. Each family opens with
   `# HELP <name> <unit>` (the unit it was recorded with) and
   `# TYPE <name> <kind>`, so count, sum, mean and any quantile are
   recoverable from the file to bucket resolution; exact min/max stay in
   {!Metric.rows}.

   Metric names are sanitized to the Prometheus grammar (letters, digits,
   '_' and ':', not starting with a digit): every other character becomes
   '_', so `repo.session.commit.latency_ns` exposes as
   `repo_session_commit_latency_ns`. *)

let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else
    match mapped.[0] with
    | '0' .. '9' -> "_" ^ mapped
    | _ -> mapped

let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
             ls)
      ^ "}"

(* `le` joins the user labels on bucket lines. *)
let render_labels_le labels le =
  let le_txt =
    if Float.is_integer le && Float.abs le < 1e15 then
      Printf.sprintf "%.0f" le
    else Printf.sprintf "%g" le
  in
  render_labels (labels @ [ ("le", le_txt) ])

let number f =
  if not (Float.is_finite f) then
    if f > 0. then "+Inf" else if f < 0. then "-Inf" else "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let add_cell buf seen_types name labels (cell : Metric.cell) =
  let sname = sanitize name in
  let type_line kind unit_ =
    if not (List.mem sname !seen_types) then begin
      seen_types := sname :: !seen_types;
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n" sname unit_ sname kind)
    end
  in
  match cell with
  | Metric.Counter { total; c_unit } ->
      type_line "counter" c_unit;
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" sname (render_labels labels) (number total))
  | Metric.Gauge { value; g_unit } ->
      type_line "gauge" g_unit;
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" sname (render_labels labels) (number value))
  | Metric.Histogram { hist; o_unit } ->
      type_line "histogram" o_unit;
      let cumulative = ref 0 in
      List.iter
        (fun (_, upper, count) ->
          cumulative := !cumulative + count;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" sname
               (render_labels_le labels upper)
               !cumulative))
        (Hist.buckets hist);
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" sname
           (render_labels (labels @ [ ("le", "+Inf") ]))
           (Hist.count hist));
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" sname (render_labels labels)
           (number (Hist.sum hist)));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" sname (render_labels labels)
           (Hist.count hist))

let render_shard (shard : Metric.shard) =
  let ordered =
    List.sort
      (fun ((a, la), _) ((b, lb), _) ->
        match String.compare a b with
        | 0 -> compare la lb
        | c -> c)
      shard
  in
  let buf = Buffer.create 1024 in
  let seen_types = ref [] in
  List.iter
    (fun ((name, labels), cell) -> add_cell buf seen_types name labels cell)
    ordered;
  Buffer.contents buf

(* The calling domain's registry view — exact run totals once every
   parallel phase has been joined (see metric.ml's merge contract). *)
let render () = render_shard (Metric.dump ())
