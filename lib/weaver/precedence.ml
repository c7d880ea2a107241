let order generated =
  List.stable_sort
    (fun (a : Aspects.Generator.generated) b ->
      Int.compare a.Aspects.Generator.seq b.Aspects.Generator.seq)
    generated

let explain generated =
  String.concat "\n"
    (List.mapi
       (fun i (g : Aspects.Generator.generated) ->
         Printf.sprintf "%d. %s (from %s)" (i + 1)
           g.Aspects.Generator.aspect.Aspects.Aspect.aspect_name
           g.Aspects.Generator.from_transformation)
       (order generated))
