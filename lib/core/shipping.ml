let ( let* ) = Result.bind

let contains_char s c = String.contains s c

let check_plain text =
  if contains_char text '\t' || contains_char text '\n' then
    Error (Printf.sprintf "value %S cannot be shipped (embedded separator)" text)
  else Ok text

let rec to_wizard_text = function
  | Transform.Params.V_string s | Transform.Params.V_ident s -> check_plain s
  | Transform.Params.V_int n -> Ok (string_of_int n)
  | Transform.Params.V_bool b -> Ok (string_of_bool b)
  | Transform.Params.V_list items ->
      let rec render acc = function
        | [] -> Ok (String.concat "," (List.rev acc))
        | item :: rest ->
            let* text = to_wizard_text item in
            if contains_char text ',' then
              Error
                (Printf.sprintf "list item %S cannot be shipped (embedded comma)"
                   text)
            else render (text :: acc) rest
      in
      render [] items

let manifest_of project =
  let rec lines acc = function
    | [] -> Ok (List.rev acc)
    | cmt :: rest ->
        let concern = Transform.Cmt.concern cmt in
        let rec fields acc = function
          | [] -> Ok (List.rev acc)
          | (name, value) :: bindings ->
              let* text = to_wizard_text value in
              fields ((name ^ "=" ^ text) :: acc) bindings
        in
        let* assignments =
          fields [] (Transform.Params.bindings cmt.Transform.Cmt.params)
        in
        lines
          (String.concat "\t" (("step" :: [ concern ]) @ assignments) :: acc)
          rest
  in
  let* ls = lines [] (Project.applied project) in
  Ok (String.concat "\n" ls ^ if ls = [] then "" else "\n")

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

let read_model path =
  match read_file path with
  | text -> Result.map_error Xmi.Import.error_to_string (Xmi.Import.parse text)
  | exception Sys_error e -> Error e

let ship ~dir project =
  let* manifest = manifest_of project in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Xmi.Export.write_file
    (Filename.concat dir "initial.xmi")
    (Project.initial_model project);
  (* one XMI per applied step, replayed from the repository log *)
  let repo = project.Project.repo in
  let commits = List.rev (Repository.Repo.log repo) in
  List.iteri
    (fun i (c : Repository.Commit.t) ->
      if i > 0 then
        match Repository.Repo.model_at repo c.Repository.Commit.id with
        | Some model ->
            Xmi.Export.write_file
              (Filename.concat dir (Printf.sprintf "step-%d.xmi" i))
              model
        | None -> assert false (* commits from [log] are stored *))
    commits;
  Xmi.Export.write_file (Filename.concat dir "final.xmi") (Project.model project);
  write_file (Filename.concat dir "MANIFEST") manifest;
  Ok ()

let load_manifest text =
  let lines =
    List.filter
      (fun l -> not (String.equal (String.trim l) ""))
      (String.split_on_char '\n' text)
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match String.split_on_char '\t' line with
        | "step" :: concern :: raw_assignments ->
            let rec split acc = function
              | [] -> Ok (List.rev acc)
              | field :: fields -> (
                  match String.index_opt field '=' with
                  | Some i ->
                      split
                        (( String.sub field 0 i,
                           String.sub field (i + 1) (String.length field - i - 1)
                         )
                        :: acc)
                        fields
                  | None ->
                      Error
                        (Printf.sprintf "malformed manifest field %S" field))
            in
            let* assignments = split [] raw_assignments in
            parse ((concern, assignments) :: acc) rest
        | _ -> Error (Printf.sprintf "malformed manifest line %S" line))
  in
  parse [] lines

let replay ~dir =
  Platform.ensure_registered ();
  let* manifest =
    match read_file (Filename.concat dir "MANIFEST") with
    | text -> Ok text
    | exception Sys_error e -> Error e
  in
  let* steps = load_manifest manifest in
  let* initial = read_model (Filename.concat dir "initial.xmi") in
  List.fold_left
    (fun acc (concern, raw_assignments) ->
      let* project = acc in
      let* gmt =
        match Concerns.Registry.find_gmt concern with
        | Some gmt -> Ok gmt
        | None -> Error (Printf.sprintf "unknown concern %s in manifest" concern)
      in
      let* params =
        Workflow.Wizard.parse_assignments gmt.Transform.Gmt.formals
          (List.map (fun (n, v) -> n ^ "=" ^ v) raw_assignments)
      in
      match Pipeline.refine project ~concern ~params with
      | Ok (project, _) -> Ok project
      | Error e -> Error (Pipeline.error_to_string e))
    (Ok (Project.create initial))
    steps

let verify ~dir =
  let* replayed = replay ~dir in
  let* shipped = read_model (Filename.concat dir "final.xmi") in
  Ok (Mof.Model.equal (Project.model replayed) shipped)
