
let describe p =
  let done_lines =
    List.map
      (fun (step, concern) -> Printf.sprintf "  [x] %s: %s" step concern)
      (State.completed p)
  in
  let current =
    match State.current_step p with
    | Some s ->
        [
          Printf.sprintf "  [ ] %s: choose one of %s%s" s.State.step_name
            (String.concat ", " s.State.choices)
            (if s.State.optional then " (optional)" else "");
        ]
    | None -> [ "  workflow complete" ]
  in
  let remaining = State.remaining_concerns p in
  String.concat "\n"
    (("refinement progress:" :: done_lines)
    @ current
    @ [ "  remaining concerns: " ^ String.concat ", " remaining ])

(* The workflow fixes concern order; the interference analysis says where
   that order is load-bearing. This lives here (not in the CLI) so any
   guidance front-end renders verdicts the same way — but the workflow
   library doesn't depend on the weaver, so the caller hands over plain
   data extracted from Weaver.Interference.report. *)
type interference_pair = {
  pair_left : string;
  pair_right : string;
  pair_conflict : string option;  (** conflict reason when order matters *)
}

let interference_brief pairs =
  match pairs with
  | [] ->
      "aspect interference: no advised aspect pairs — any concern order is \
       safe"
  | _ ->
      let conflicts =
        List.length (List.filter (fun p -> p.pair_conflict <> None) pairs)
      in
      let header =
        Printf.sprintf "aspect interference: %d pair(s), %d order-sensitive"
          (List.length pairs) conflicts
      in
      let lines =
        List.map
          (fun p ->
            match p.pair_conflict with
            | None ->
                Printf.sprintf "  [ok] %s ~ %s: weave order unobservable"
                  p.pair_left p.pair_right
            | Some reason ->
                Printf.sprintf "  [!!] %s ~ %s: %s (workflow order is \
                                load-bearing)"
                  p.pair_left p.pair_right reason)
          pairs
      in
      String.concat "\n" (header :: lines)
