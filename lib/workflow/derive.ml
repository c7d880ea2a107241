
let from_dependencies ?(optional = []) specs =
  let names = List.map fst specs in
  let duplicate =
    let rec find seen = function
      | [] -> None
      | n :: rest -> if List.mem n seen then Some n else find (n :: seen) rest
    in
    find [] names
  in
  let unknown =
    List.concat_map
      (fun (_, deps) -> List.filter (fun d -> not (List.mem d names)) deps)
      specs
  in
  match (duplicate, unknown) with
  | Some n, _ -> Error (Printf.sprintf "concern %s declared twice" n)
  | None, d :: _ -> Error (Printf.sprintf "unknown prerequisite %s" d)
  | None, [] ->
      (* Kahn's algorithm with declaration-order tie-breaking *)
      let rec place ordered remaining =
        match remaining with
        | [] -> Ok (List.rev ordered)
        | _ -> (
            let ready =
              List.find_opt
                (fun (_, deps) ->
                  List.for_all (fun d -> List.mem d ordered) deps)
                remaining
            in
            match ready with
            | Some (name, _) ->
                place (name :: ordered)
                  (List.filter (fun (n, _) -> not (String.equal n name)) remaining)
            | None ->
                Error
                  (Printf.sprintf "dependency cycle among: %s"
                     (String.concat ", " (List.map fst remaining))))
      in
      (match place [] specs with
      | Error e -> Error e
      | Ok ordered ->
          Ok
            (State.workflow
               (List.map
                  (fun concern ->
                    State.step
                      ~optional:(List.mem concern optional)
                      ~name:("apply-" ^ concern) [ concern ])
                  ordered)))
