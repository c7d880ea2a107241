(* agree — compare two mdbench result files under BENCHMARK.json's bounds.

     agree.exe A.json B.json

   Run it from the root of the repository, where it reads BENCHMARK.json.
   For every (workload, end-to-end metric) present in both files it prints
   one row: the two medians, the change of B against A in the metric's
   "worse" direction, and a verdict.
   - agree       |change| within the bound
   - worse       B worse than A by more than the bound
   - better      B better than A by more than the bound
   - unresolved  either side's repetitions spread wider than the bound
                 (interquartile range over the median), unless every
                 repetition of one side reads better than every repetition
                 of the other
   Exit status is 1 when any row is worse or unresolved. *)

(* The obs library's JSON reader; [Obs] does not re-export it. *)
open Obs__Flatjson

let fail msg =
  prerr_endline ("agree: " ^ msg);
  exit 2

let read path =
  match In_channel.with_open_bin path In_channel.input_all |> parse with
  | Ok v -> v
  | Error e -> fail (path ^ ": " ^ e)
  | exception Sys_error e -> fail e

let field k = function Obj fs -> List.assoc_opt k fs | _ -> None
let num = function Some (Num f) -> Some f | _ -> None
let str = function Some (Str s) -> Some s | _ -> None
let arr = function Some (Arr l) -> l | _ -> []

type bound = { name : string; bound : float; lower_is_better : bool }

let bounds path =
  List.filter_map
    (fun e ->
      match (str (field "name" e), num (field "bound" e), str (field "better" e)) with
      | Some name, Some bound, Some better ->
          Some { name; bound; lower_is_better = better = "lower" }
      | _ -> None)
    (arr (field "end_to_end" (read path)))

(* workload name -> metric name -> (median, reps) *)
let results path =
  List.filter_map
    (fun w ->
      match (str (field "name" w), field "metrics" w) with
      | Some name, Some (Obj ms) ->
          Some
            ( name,
              List.filter_map
                (fun (k, v) ->
                  match num (field "value" v) with
                  | Some med ->
                      Some (k, (med, List.filter_map (fun x -> num (Some x)) (arr (field "reps" v))))
                  | None -> None)
                ms )
      | _ -> None)
    (arr (field "workloads" (read path)))

(* interquartile range over the median, quartiles by linear interpolation *)
let spread med reps =
  let a = Array.of_list reps in
  Array.sort compare a;
  let n = Array.length a in
  let quartile p =
    let h = float (n - 1) *. p in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float lo) *. (a.(hi) -. a.(lo)))
  in
  if n = 0 || med = 0. then 0. else (quartile 0.75 -. quartile 0.25) /. Float.abs med

let verdict b (ma, ra) (mb, rb) =
  let worse x y = if b.lower_is_better then y > x else y < x in
  let change =
    if ma = 0. then 0.
    else (if b.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma
  in
  let all_pairs p = ra <> [] && rb <> [] && List.for_all (fun x -> List.for_all (p x) rb) ra in
  let v =
    if spread ma ra > b.bound || spread mb rb > b.bound then
      if all_pairs (fun x y -> worse y x) then "better"
      else if all_pairs (fun x y -> worse x y) then "worse"
      else "unresolved"
    else if change > b.bound then "worse"
    else if change < -.b.bound then "better"
    else "agree"
  in
  (change, v)

let () =
  let files = ref [] in
  Arg.parse [] (fun f -> files := !files @ [ f ]) "agree A.json B.json";
  let a, b =
    match !files with [ a; b ] -> (a, b) | _ -> fail "expected two result files"
  in
  let bs = bounds "BENCHMARK.json" in
  let ra = results a and rb = results b in
  let bad = ref 0 in
  Printf.printf "%-12s %-14s %14s %14s %9s %6s  %s\n" "workload" "metric" "A" "B" "change" "bound"
    "verdict";
  List.iter
    (fun (w, ma) ->
      match List.assoc_opt w rb with
      | None -> Printf.printf "%-12s missing from %s\n" w b
      | Some mb ->
          List.iter
            (fun bd ->
              match (List.assoc_opt bd.name ma, List.assoc_opt bd.name mb) with
              | Some x, Some y ->
                  let change, v = verdict bd x y in
                  if v = "worse" || v = "unresolved" then incr bad;
                  Printf.printf "%-12s %-14s %14.4f %14.4f %+8.1f%% %5.0f%%  %s\n" w bd.name
                    (fst x) (fst y) (100. *. change) (100. *. bd.bound) v
              | _ -> ())
            bs)
    ra;
  if !bad > 0 then exit 1
