let advice_to_string (a : Advice.t) =
  let header =
    match a.Advice.time with
    | Advice.Before -> "before() : " ^ Pointcut.to_string a.Advice.pointcut
    | Advice.After -> "after() : " ^ Pointcut.to_string a.Advice.pointcut
    | Advice.After_returning ->
        "after() returning : " ^ Pointcut.to_string a.Advice.pointcut
    | Advice.Around -> "Object around() : " ^ Pointcut.to_string a.Advice.pointcut
  in
  String.concat "\n"
    (("  " ^ header ^ " {")
     :: List.map (Code.Printer.stmt_to_string ~indent:2) a.Advice.body
    @ [ "  }" ])

let intertype_to_string = function
  | Aspect.It_field (pattern, f) ->
      Printf.sprintf "  %s %s %s.%s;"
        (String.concat " "
           (List.map Code.Jdecl.modifier_to_string f.Code.Jdecl.field_mods))
        (Code.Jtype.to_string f.Code.Jdecl.field_type)
        pattern f.Code.Jdecl.field_name
  | Aspect.It_method (pattern, m) ->
      (* the signature names the target pattern: C.m(...) *)
      Code.Printer.method_to_string ~indent:1
        { m with Code.Jdecl.method_name = pattern ^ "." ^ m.Code.Jdecl.method_name }

let to_string (t : Aspect.t) =
  String.concat "\n"
    ([
       Printf.sprintf "// concern: %s" t.Aspect.concern;
       Printf.sprintf "public aspect %s {" t.Aspect.aspect_name;
     ]
    @ List.map intertype_to_string t.Aspect.intertypes
    @ (if t.Aspect.intertypes = [] then [] else [ "" ])
    @ List.concat_map (fun a -> [ advice_to_string a; "" ]) t.Aspect.advices
    @ [ "}" ])

let generated_to_string (g : Generator.generated) =
  Printf.sprintf "// generated from %s (precedence %d)\n%s"
    g.Generator.from_transformation g.Generator.seq (to_string g.Generator.aspect)
