type step = {
  step_name : string;
  choices : string list;
  optional : bool;
}

let step ?(optional = false) ~name choices =
  { step_name = name; choices; optional }

type t = { steps : step list }

let workflow steps = { steps }

let middleware_default =
  workflow
    [
      step ~name:"distribute" [ "distribution" ];
      step ~name:"make-transactional" [ "transactions" ];
      step ~name:"secure" [ "security" ];
      step ~optional:true ~name:"synchronize" [ "concurrency" ];
      step ~optional:true ~name:"instrument" [ "logging" ];
    ]

type progress = {
  definition : t;
  done_rev : (string * string) list;  (** (step, concern), most recent first *)
  position : int;  (** index of the next unsatisfied step *)
}

let start definition = { definition; done_rev = []; position = 0 }
let definition p = p.definition

let current_step p = List.nth_opt p.definition.steps p.position

let rec find_admitting steps position concern =
  match List.nth_opt steps position with
  | None -> None
  | Some s ->
      if List.mem concern s.choices then Some (position, s)
      else if s.optional then find_admitting steps (position + 1) concern
      else None

let advance p ~concern =
  match find_admitting p.definition.steps p.position concern with
  | Some (position, s) ->
      Ok
        {
          p with
          done_rev = (s.step_name, concern) :: p.done_rev;
          position = position + 1;
        }
  | None -> (
      match current_step p with
      | Some s ->
          Error
            (Printf.sprintf
               "concern %s is not admissible at step %s (expected one of: %s)"
               concern s.step_name
               (String.concat ", " s.choices))
      | None ->
          Error
            (Printf.sprintf "workflow is complete; concern %s not expected"
               concern))

let completed p = List.rev p.done_rev

let remaining_concerns p =
  let rec collect i acc =
    match List.nth_opt p.definition.steps i with
    | None -> acc
    | Some s ->
        collect (i + 1)
          (List.fold_left
             (fun acc c -> if List.mem c acc then acc else acc @ [ c ])
             acc s.choices)
  in
  collect p.position []
