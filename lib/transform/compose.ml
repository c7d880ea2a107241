let merge_formals decl_lists =
  let rec merge acc = function
    | [] -> Ok (List.rev acc)
    | (d : Params.decl) :: rest -> (
        match
          List.find_opt
            (fun (d' : Params.decl) -> String.equal d'.Params.pname d.Params.pname)
            acc
        with
        | None -> merge (d :: acc) rest
        | Some d' ->
            if d'.Params.ptype = d.Params.ptype then merge acc rest
            else
              Error
                (Printf.sprintf
                   "parameter %s declared with conflicting types %s and %s"
                   d.Params.pname
                   (Params.ptype_to_string d'.Params.ptype)
                   (Params.ptype_to_string d.Params.ptype)))
  in
  merge [] (List.concat decl_lists)

(* Specialize one member with its share of a merged parameter set. *)
let member (gmt : Gmt.t) merged =
  let names =
    List.map (fun (d : Params.decl) -> d.Params.pname) gmt.Gmt.formals
  in
  let assignments =
    List.filter (fun (name, _) -> List.mem name names) (Params.bindings merged)
  in
  match Cmt.specialize gmt assignments with
  | Ok cmt -> cmt
  | Error problems ->
      Gmt.rewrite_error "composite member %s: %s" gmt.Gmt.name
        (Format.asprintf "%a"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
              Params.pp_problem)
           problems)

let check_conditions stage cmt conditions model =
  let env = Cmt.env cmt in
  List.iter
    (fun (c : Ocl.Constraint_.t) ->
      match Ocl.Constraint_.check ~env model c with
      | Ocl.Constraint_.Holds -> ()
      | outcome ->
          Gmt.rewrite_error "composite member %s: %s %s %a"
            cmt.Cmt.gmt.Gmt.name stage c.Ocl.Constraint_.name
            Ocl.Constraint_.pp_outcome outcome)
    conditions

let sequence ~name ~concern gmts =
  match gmts with
  | [] -> Error "cannot compose an empty transformation list"
  | first :: _ -> (
      match merge_formals (List.map (fun (g : Gmt.t) -> g.Gmt.formals) gmts) with
      | Error e -> Error e
      | Ok formals ->
          let last = List.nth gmts (List.length gmts - 1) in
          let rewrite merged model =
            List.fold_left
              (fun model (g : Gmt.t) ->
                let cmt = member g merged in
                check_conditions "precondition" cmt g.Gmt.preconditions model;
                let model' = Cmt.rewrite cmt model in
                check_conditions "postcondition" cmt g.Gmt.postconditions
                  model';
                model')
              model gmts
          in
          Ok
            (Gmt.make ~name ~concern
               ~description:
                 ("sequential composition of "
                 ^ String.concat ", "
                     (List.map (fun (g : Gmt.t) -> g.Gmt.name) gmts))
               ~formals
               ~preconditions:first.Gmt.preconditions
               ~postconditions:last.Gmt.postconditions rewrite))
