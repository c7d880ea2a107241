(* Which shadow domains a pointcut can match: [(wants_exec, wants_stmt)].
   A pure [within] pointcut constrains but never selects, so it wants
   neither — advice gated on it is inert, and the weaver and the
   interference analysis must agree on that. *)
let rec kinds = function
  | Aspects.Pointcut.Execution _ -> (true, false)
  | Aspects.Pointcut.Call _ | Aspects.Pointcut.Set_field _ -> (false, true)
  | Aspects.Pointcut.Within _ -> (false, false)
  | Aspects.Pointcut.And (x, y) | Aspects.Pointcut.Or (x, y) ->
      let ex, st = kinds x and ey, sy = kinds y in
      (ex || ey, st || sy)
  | Aspects.Pointcut.Not x -> kinds x

(* ---- reference semantics ------------------------------------------------- *)

(* A direct walk over the pointcut AST: re-examines the node structure and
   runs the generic wildcard DP at every shadow. The reference the deciders
   below are checked against (the [matcher] oracle compares decider and
   walk on random pointcut × shadow pairs). *)
let rec matches_tree pc shadow =
  match (pc, shadow) with
  | Aspects.Pointcut.Execution mp, Joinpoint.Sh_execution { class_name; method_name } ->
      Aspects.Pattern.matches_method mp ~class_name ~method_name
  | Aspects.Pointcut.Call mp, Joinpoint.Sh_call { receiver_class; method_name; _ }
    -> (
      match receiver_class with
      | Some class_name ->
          Aspects.Pattern.matches_method mp ~class_name ~method_name
      | None ->
          (* Unresolved receiver: the shadow could belong to any class, so
             the class pattern never excludes it — only the method pattern
             filters. Narrow with [within] when precision matters. *)
          Aspects.Pattern.matches mp.Aspects.Pattern.mp_method method_name)
  | ( Aspects.Pointcut.Set_field (cls_pat, field_pat),
      Joinpoint.Sh_field_set { target_class; field_name; _ } ) ->
      Aspects.Pattern.matches cls_pat target_class
      && Aspects.Pattern.matches field_pat field_name
  | Aspects.Pointcut.Within cls_pat, shadow ->
      Aspects.Pattern.matches cls_pat (Joinpoint.enclosing_class shadow)
  | Aspects.Pointcut.And (a, b), shadow ->
      matches_tree a shadow && matches_tree b shadow
  | Aspects.Pointcut.Or (a, b), shadow ->
      matches_tree a shadow || matches_tree b shadow
  | Aspects.Pointcut.Not a, shadow -> not (matches_tree a shadow)
  | Aspects.Pointcut.Execution _, (Joinpoint.Sh_call _ | Joinpoint.Sh_field_set _)
  | Aspects.Pointcut.Call _, (Joinpoint.Sh_execution _ | Joinpoint.Sh_field_set _)
  | Aspects.Pointcut.Set_field _, (Joinpoint.Sh_execution _ | Joinpoint.Sh_call _)
    ->
      false

(* ---- deciders ----------------------------------------------------------- *)

(* Pattern specialization: the generic '*'-substring DP allocates a
   position array and scans it per pattern character; almost every
   pattern the concern library produces is one of five cheap shapes.
   Each compiled pattern is a [string -> bool] with the DP's exact
   semantics ('*' matches any substring, including empty). *)
let contains_sub s needle =
  let n = String.length needle and len = String.length s in
  if n = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i + n <= len do
      if String.sub s !i n = needle then found := true else incr i
    done;
    !found
  end

let compile_pattern p =
  let len = String.length p in
  let star_free s = not (String.contains s '*') in
  if star_free p then String.equal p
  else if String.equal p "*" then fun _ -> true
  else if p.[0] = '*' && star_free (String.sub p 1 (len - 1)) then
    let suffix = String.sub p 1 (len - 1) in
    String.ends_with ~suffix
  else if p.[len - 1] = '*' && star_free (String.sub p 0 (len - 1)) then
    let prefix = String.sub p 0 (len - 1) in
    String.starts_with ~prefix
  else if len >= 2 && p.[0] = '*' && p.[len - 1] = '*'
          && star_free (String.sub p 1 (len - 2)) then
    let core = String.sub p 1 (len - 2) in
    fun name -> contains_sub name core
  else Aspects.Pattern.matches p

(* Staged on the pointcut: [matches pc] compiles the decider once, and
   the returned closure is applied per shadow. The weaver stages each
   advice once per aspect traversal. *)
let rec matches pc =
  match pc with
  | Aspects.Pointcut.Execution mp -> (
      let cls = compile_pattern mp.Aspects.Pattern.mp_class in
      let meth = compile_pattern mp.Aspects.Pattern.mp_method in
      function
      | Joinpoint.Sh_execution { class_name; method_name } ->
          cls class_name && meth method_name
      | _ -> false)
  | Aspects.Pointcut.Call mp -> (
      let cls = compile_pattern mp.Aspects.Pattern.mp_class in
      let meth = compile_pattern mp.Aspects.Pattern.mp_method in
      function
      | Joinpoint.Sh_call { receiver_class = Some class_name; method_name; _ } ->
          cls class_name && meth method_name
      | Joinpoint.Sh_call { receiver_class = None; method_name; _ } ->
          meth method_name
      | _ -> false)
  | Aspects.Pointcut.Set_field (cls_pat, field_pat) -> (
      let cls = compile_pattern cls_pat in
      let field = compile_pattern field_pat in
      function
      | Joinpoint.Sh_field_set { target_class; field_name; _ } ->
          cls target_class && field field_name
      | _ -> false)
  | Aspects.Pointcut.Within cls_pat ->
      let cls = compile_pattern cls_pat in
      fun shadow -> cls (Joinpoint.enclosing_class shadow)
  | Aspects.Pointcut.And (a, b) ->
      let da = matches a and db = matches b in
      fun shadow -> da shadow && db shadow
  | Aspects.Pointcut.Or (a, b) ->
      let da = matches a and db = matches b in
      fun shadow -> da shadow || db shadow
  | Aspects.Pointcut.Not a ->
      let da = matches a in
      fun shadow -> not (da shadow)
