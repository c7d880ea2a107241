type t = {
  functional : Code.Junit.program;
  generated_aspects : Aspects.Generator.generated list;
  woven : Code.Junit.program;
  applications : Weaver.Weave.application list;
}

let precedence_listing t = Weaver.Precedence.explain t.generated_aspects

let interference t =
  Weaver.Interference.analyze t.generated_aspects t.functional

let summary t =
  Printf.sprintf
    "%d unit(s), %d class(es), %d method(s); %d aspect(s), %d advice \
     application(s)"
    (List.length t.functional)
    (List.length (Code.Junit.classes t.functional))
    (Code.Junit.total_methods t.functional)
    (List.length t.generated_aspects)
    (List.length t.applications)

let render_aspects t =
  String.concat "\n\n"
    (List.map Aspects.Printer.generated_to_string t.generated_aspects)

let render_functional t = Code.Printer.program_to_string t.functional
let render_woven t = Code.Printer.program_to_string t.woven

let write_to_dir dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Obs.write_file (Filename.concat dir "functional.java") (render_functional t);
  Obs.write_file (Filename.concat dir "aspects.aj") (render_aspects t);
  Obs.write_file (Filename.concat dir "woven.java") (render_woven t);
  let report =
    String.concat "\n"
      ([ summary t; ""; "aspect precedence:"; precedence_listing t; "" ]
      @ List.map
          (fun (a : Weaver.Weave.application) ->
            Printf.sprintf "%s / %s @ %s" a.Weaver.Weave.aspect_name
              a.Weaver.Weave.advice_name a.Weaver.Weave.at)
          t.applications
      @ [ ""; "interference analysis:"; Weaver.Interference.render (interference t) ])
  in
  Obs.write_file (Filename.concat dir "BUILD-REPORT.txt") report
