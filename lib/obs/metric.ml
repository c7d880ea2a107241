(* Counters, gauges and histograms keyed by (name, labels).

   Recording is off by default: every entry point checks one atomic flag
   before touching the registry, so uninstrumented runs pay a memory read
   per call site. Histograms are full log-linear bucket vectors ({!Hist}):
   count/sum/min/max plus p50/p90/p99 quantile estimates in the snapshot
   rows, and the raw buckets for the Prometheus-style exposition
   ({!Expo}).

   The registry is sharded per domain (Domain.DLS): every domain records
   into its own hash table, so instrumented code running on a pool of
   worker domains never contends on — or races — a shared structure. The
   merge contract is explicit: a worker {!drain}s its shard when it
   finishes a parallel job, and the submitting domain {!absorb}s the
   drained shards at join. After the join, the submitter's registry holds
   exact totals (counters and histograms are commutative merges; a gauge
   keeps the last absorbed write, matching its last-write-wins reading).
   [rows] therefore reports the calling domain's view — which is the whole
   run's view exactly when every parallel phase has been joined. *)

type labels = (string * string) list

type cell =
  | Counter of { mutable total : float; c_unit : string }
  | Gauge of { mutable value : float; g_unit : string }
  | Histogram of { hist : Hist.t; o_unit : string }

(* The switch is global (an enable in the submitting domain must be seen by
   pool workers it spawns work onto); the data is domain-local. *)
let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let registry_key : ((string * labels, cell) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key
let reset () = Hashtbl.reset (registry ())

let find_or_add key make =
  let registry = registry () in
  match Hashtbl.find_opt registry key with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.add registry key c;
      c

(* A kind clash (same key used as counter and histogram) drops the sample:
   telemetry must never raise out of an instrumented hot path. *)

let incr ?(by = 1.) ?(unit_ = "count") name labels =
  if Atomic.get on then
    match
      find_or_add (name, labels) (fun () -> Counter { total = 0.; c_unit = unit_ })
    with
    | Counter c -> c.total <- c.total +. by
    | Gauge _ | Histogram _ -> ()

let set ?(unit_ = "value") name labels v =
  if Atomic.get on then
    match
      find_or_add (name, labels) (fun () -> Gauge { value = v; g_unit = unit_ })
    with
    | Gauge g -> g.value <- v
    | Counter _ | Histogram _ -> ()

let observe ?(unit_ = "ns") name labels v =
  if Atomic.get on then
    match
      find_or_add (name, labels) (fun () ->
          Histogram { hist = Hist.create (); o_unit = unit_ })
    with
    | Histogram { hist; _ } -> Hist.observe hist v
    | Counter _ | Gauge _ -> ()

(* ---- shards: drain on the worker, absorb at the join --------------------- *)

type shard = ((string * labels) * cell) list

let drain () : shard =
  let registry = registry () in
  let cells = Hashtbl.fold (fun k c acc -> (k, c) :: acc) registry [] in
  Hashtbl.reset registry;
  cells

let absorb (shard : shard) =
  List.iter
    (fun (key, cell) ->
      match (find_or_add key (fun () -> cell), cell) with
      | c, c' when c == c' -> () (* key was absent: the cell moved over *)
      | Counter c, Counter { total; _ } -> c.total <- c.total +. total
      | Gauge g, Gauge { value; _ } -> g.value <- value
      | Histogram { hist = h; _ }, Histogram { hist = h'; _ } ->
          Hist.merge_into ~into:h h'
      | _, _ -> () (* kind clash across shards: drop, as recording does *))
    shard

(* Non-destructive view of the calling domain's registry — what {!Expo}
   renders. Cells are live; callers must not hold them across records. *)
let dump () : shard =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) (registry ()) []

(* ---- snapshots --------------------------------------------------------- *)

type row = { metric : string; value : float; unit_ : string }

let qualified name labels =
  match labels with
  | [] -> name
  | ls ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
      ^ "}"

let rows () =
  let all =
    Hashtbl.fold
      (fun (name, labels) cell acc ->
        let q = qualified name labels in
        match cell with
        | Counter { total; c_unit } -> { metric = q; value = total; unit_ = c_unit } :: acc
        | Gauge { value; g_unit } -> { metric = q; value; unit_ = g_unit } :: acc
        | Histogram { hist; o_unit } ->
            let r suffix value unit_ =
              { metric = q ^ "." ^ suffix; value; unit_ }
            in
            let s = Hist.snapshot hist in
            r "count" (float_of_int s.Hist.s_count) "count"
            :: r "sum" s.Hist.s_sum o_unit
            :: r "min" s.Hist.s_min o_unit
            :: r "max" s.Hist.s_max o_unit
            :: r "mean" (Hist.mean hist) o_unit
            :: r "p50" s.Hist.s_p50 o_unit
            :: r "p90" s.Hist.s_p90 o_unit
            :: r "p99" s.Hist.s_p99 o_unit
            :: acc)
      (registry ()) []
  in
  List.sort (fun a b -> String.compare a.metric b.metric) all

(* One `{experiment, metric, value, unit}` object: a row of bench's
   BENCH_*.json snapshots, the schema {!Regress} reads. *)
let row_to_json ~experiment r =
  Printf.sprintf "{\"experiment\":%s,\"metric\":%s,\"value\":%s,\"unit\":%s}"
    (Event.json_string experiment)
    (Event.json_string r.metric)
    (Event.json_float r.value)
    (Event.json_string r.unit_)
