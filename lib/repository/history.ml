let render repo =
  let head_id = (Repo.head repo).Commit.id in
  let tag_names_of id =
    List.filter_map
      (fun (name, tid) -> if tid = id then Some name else None)
      (Repo.tags repo)
  in
  String.concat "\n"
    (List.map
       (fun (c : Commit.t) ->
         let marker = if c.Commit.id = head_id then "* " else "  " in
         let tag_suffix =
           match tag_names_of c.Commit.id with
           | [] -> ""
           | names -> " <" ^ String.concat ", " names ^ ">"
         in
         marker ^ Commit.summary c ^ tag_suffix)
       (Repo.log repo))
