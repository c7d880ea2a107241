type application = {
  aspect_name : string;
  advice_name : string;
  at : string;
}

type result = {
  program : Code.Junit.program;
  applications : application list;
}

(* Substitute the pseudo-variables of advice bodies for a concrete shadow. *)
let instantiate_body shadow stmts =
  let rewrite_names e =
    let rec walk e =
      match e with
      | Code.Jexpr.E_name "thisJoinPoint" ->
          Code.Jexpr.E_string (Joinpoint.describe shadow)
      | Code.Jexpr.E_name "targetName" ->
          Code.Jexpr.E_string (Joinpoint.enclosing_class shadow)
      | Code.Jexpr.E_null | Code.Jexpr.E_this | Code.Jexpr.E_bool _
      | Code.Jexpr.E_int _ | Code.Jexpr.E_double _ | Code.Jexpr.E_string _
      | Code.Jexpr.E_name _ ->
          e
      | Code.Jexpr.E_field (r, f) -> Code.Jexpr.E_field (walk r, f)
      | Code.Jexpr.E_call (r, m, args) ->
          Code.Jexpr.E_call (Option.map walk r, m, List.map walk args)
      | Code.Jexpr.E_new (c, args) -> Code.Jexpr.E_new (c, List.map walk args)
      | Code.Jexpr.E_binary (op, a, b) -> Code.Jexpr.E_binary (op, walk a, walk b)
      | Code.Jexpr.E_unary (op, a) -> Code.Jexpr.E_unary (op, walk a)
      | Code.Jexpr.E_assign (l, r) -> Code.Jexpr.E_assign (walk l, walk r)
      | Code.Jexpr.E_cast (t, a) -> Code.Jexpr.E_cast (t, walk a)
      | Code.Jexpr.E_instanceof (a, c) -> Code.Jexpr.E_instanceof (walk a, c)
    in
    walk e
  in
  List.map (Code.Jstmt.map_expr rewrite_names) stmts

(* Replace the statement containing the proceed() marker by the original
   body (wrapped in a block). *)
let rec splice_proceed original stmts =
  List.concat_map
    (fun stmt ->
      let is_marker =
        match stmt with
        | Code.Jstmt.S_expr (Code.Jexpr.E_call (None, "proceed", [])) -> true
        | _ -> false
      in
      if is_marker then [ Code.Jstmt.S_block original ]
      else
        match stmt with
        | Code.Jstmt.S_if (c, t, f) ->
            [ Code.Jstmt.S_if (c, splice_proceed original t, splice_proceed original f) ]
        | Code.Jstmt.S_while (c, b) ->
            [ Code.Jstmt.S_while (c, splice_proceed original b) ]
        | Code.Jstmt.S_try (b, catches, fin) ->
            [
              Code.Jstmt.S_try
                ( splice_proceed original b,
                  List.map
                    (fun (t, n, stmts) -> (t, n, splice_proceed original stmts))
                    catches,
                  splice_proceed original fin );
            ]
        | Code.Jstmt.S_sync (e, b) ->
            [ Code.Jstmt.S_sync (e, splice_proceed original b) ]
        | Code.Jstmt.S_block b -> [ Code.Jstmt.S_block (splice_proceed original b) ]
        | stmt -> [ stmt ])
    stmts

(* Weave one piece of execution advice into a method body. *)
let weave_execution_advice (a : Aspects.Advice.t) shadow body =
  let advice_body = instantiate_body shadow a.Aspects.Advice.body in
  match a.Aspects.Advice.time with
  | Aspects.Advice.Before -> advice_body @ body
  | Aspects.Advice.After -> [ Code.Jstmt.S_try (body, [], advice_body) ]
  | Aspects.Advice.After_returning -> (
      match List.rev body with
      | Code.Jstmt.S_return _ as ret :: prefix ->
          List.rev prefix @ advice_body @ [ ret ]
      | _ -> body @ advice_body)
  | Aspects.Advice.Around -> splice_proceed body advice_body

(* Wrap individual statements that contain matching call/set shadows.
   [decide] is the advice's staged decider (see [weave_one]). *)
let weave_statement_advice (a : Aspects.Advice.t) decide scope ~within_method
    record body =
  let rec rewrite stmts =
    List.map
      (fun stmt ->
        let nested =
          match stmt with
          | Code.Jstmt.S_if (c, t, f) -> Code.Jstmt.S_if (c, rewrite t, rewrite f)
          | Code.Jstmt.S_while (c, b) -> Code.Jstmt.S_while (c, rewrite b)
          | Code.Jstmt.S_try (b, catches, fin) ->
              Code.Jstmt.S_try
                ( rewrite b,
                  List.map (fun (t, n, s) -> (t, n, rewrite s)) catches,
                  rewrite fin )
          | Code.Jstmt.S_sync (e, b) -> Code.Jstmt.S_sync (e, rewrite b)
          | Code.Jstmt.S_block b -> Code.Jstmt.S_block (rewrite b)
          | stmt -> stmt
        in
        (* only direct expressions of this statement, not nested ones —
           nested statements were handled by the recursion above *)
        let shadows = Joinpoint.statement_shadows scope ~within_method nested in
        let matching = List.filter decide shadows in
        match matching with
        | [] -> nested
        | shadow :: _ ->
            record shadow;
            let advice_body = instantiate_body shadow a.Aspects.Advice.body in
            (match a.Aspects.Advice.time with
            | Aspects.Advice.Before ->
                Code.Jstmt.S_block (advice_body @ [ nested ])
            | Aspects.Advice.After | Aspects.Advice.After_returning ->
                Code.Jstmt.S_block ([ nested ] @ advice_body)
            | Aspects.Advice.Around ->
                Code.Jstmt.S_block (splice_proceed [ nested ] advice_body)))
      stmts
  in
  rewrite body

(* Apply every inter-type declaration of an aspect to one class
   (declaration order preserved). *)
let apply_intertypes intertypes (c : Code.Jdecl.class_) =
  List.fold_left
    (fun c it ->
      match it with
      | Aspects.Aspect.It_field (pattern, field) ->
          if Aspects.Pattern.matches pattern c.Code.Jdecl.class_name then
            Code.Jdecl.add_field field c
          else c
      | Aspects.Aspect.It_method (pattern, m) ->
          if Aspects.Pattern.matches pattern c.Code.Jdecl.class_name then
            Code.Jdecl.add_method m c
          else c)
    c intertypes

(* Weave one aspect's staged advices [(advice, wants_exec, wants_stmt,
   decide)] into one class; [record] receives each advice application.
   The scope of a method only reads the class itself, so per-class weaving
   is a pure function of (class, aspect). *)
let weave_class advices record (c : Code.Jdecl.class_) =
  Code.Jdecl.map_methods
    (fun m ->
      match m.Code.Jdecl.body with
      | None -> m
      | Some body ->
          (* only statement advice reads the scope *)
          let scope = lazy (Joinpoint.scope_of_method c m) in
          let within_method = m.Code.Jdecl.method_name in
          let exec_shadow =
            Joinpoint.Sh_execution
              {
                class_name = c.Code.Jdecl.class_name;
                method_name = m.Code.Jdecl.method_name;
              }
          in
          let body =
            List.fold_left
              (fun body ((a : Aspects.Advice.t), wants_exec, wants_stmt, decide)
                 ->
                let body =
                  if wants_stmt then
                    weave_statement_advice a decide (Lazy.force scope)
                      ~within_method
                      (record a.Aspects.Advice.advice_name)
                      body
                  else body
                in
                if wants_exec && decide exec_shadow then begin
                  record a.Aspects.Advice.advice_name exec_shadow;
                  weave_execution_advice a exec_shadow body
                end
                else body)
              body advices
          in
          { m with Code.Jdecl.body = Some body })
    c

let weave_one (aspect : Aspects.Aspect.t) program =
  let applications = ref [] in
  let record advice_name shadow =
    Obs.incr "weave.joinpoint.match" [];
    applications :=
      {
        aspect_name = aspect.Aspects.Aspect.aspect_name;
        advice_name;
        at = Joinpoint.describe shadow;
      }
      :: !applications
  in
  (* Stage each advice's decider once per traversal: [Matcher.matches pc]
     compiles at partial application, so the per-class, per-method and
     per-statement loops only apply closures. *)
  let advices =
    List.map
      (fun (a : Aspects.Advice.t) ->
        let pc = a.Aspects.Advice.pointcut in
        let wants_exec, wants_stmt = Matcher.kinds pc in
        (a, wants_exec, wants_stmt, Matcher.matches pc))
      aspect.Aspects.Aspect.advices
  in
  let intertypes = aspect.Aspects.Aspect.intertypes in
  let program =
    Code.Junit.map_classes
      (fun c -> weave_class advices record (apply_intertypes intertypes c))
      program
  in
  { program; applications = List.rev !applications }

let emit_precedence ordered =
  if Obs.enabled () then
    (* the precedence decision, as one structured event: position in the
       model-level transformation order -> aspect woven at that rank *)
    Obs.event ~cat:"weaver" "weave.precedence"
      ~args:
        (List.mapi
           (fun i (g : Aspects.Generator.generated) ->
             ( string_of_int (i + 1),
               Obs.Event.V_string
                 g.Aspects.Generator.aspect.Aspects.Aspect.aspect_name ))
           ordered)

(* The aspect-major fold: one program traversal per aspect, lowest
   precedence first, so the highest-precedence aspect wraps the others. *)
let weave generated program =
  Obs.span ~cat:"weaver" "weave"
    ~args:[ ("aspects", Obs.Event.V_int (List.length generated)) ]
  @@ fun () ->
  let ordered = Precedence.order generated in
  emit_precedence ordered;
  let program, applications =
    List.fold_left
      (fun (program, applications) (g : Aspects.Generator.generated) ->
        let r = weave_one g.Aspects.Generator.aspect program in
        Obs.incr "weave.applications" []
          ~by:(float_of_int (List.length r.applications));
        (r.program, List.rev_append r.applications applications))
      (program, []) (List.rev ordered)
  in
  { program; applications = List.rev applications }
