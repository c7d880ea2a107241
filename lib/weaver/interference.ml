(* Critical-pair-style static interference analysis.

   Two aspects interfere when their weave order is observable in the woven
   program. The analysis works per aspect pair: it computes where each
   aspect's advice applies (every shadow of the program, gated exactly
   like the weaver), classifies advice effects, and searches for a
   critical overlap — a shared shadow with non-commuting advice, statement
   wrapping colliding in one method, shadows one aspect's woven bodies or
   inter-type members introduce that the other may match, or declarations
   that can change receiver resolution. Every rule is conservative: a pair
   is reported independent only when no rule fires, and the fuzz harness
   verifies that reported-independent pairs really commute. *)

type effect_kind =
  | Wrap
  | Insert_before
  | Insert_after
  | Field_touch

let effect_to_string = function
  | Wrap -> "wrap"
  | Insert_before -> "insert-before"
  | Insert_after -> "insert-after"
  | Field_touch -> "field-touch"

type advising = {
  aspect_name : string;
  concern : string;
  advice_name : string;
  time : Aspects.Advice.time;
  precedence : int;
  effect : effect_kind;
}

type entry = {
  at : Joinpoint.shadow;
  advisers : advising list;
  shared : bool;
}

type verdict =
  | Independent
  | Conflicting of {
      witness : Joinpoint.shadow option;
      reason : string;
    }

type pair = {
  left : string;
  right : string;
  verdict : verdict;
}

type report = {
  entries : entry list;
  shared : entry list;
  pairs : pair list;
}

let effect_of (a : Aspects.Advice.t) shadow =
  match shadow with
  | Joinpoint.Sh_field_set _ -> Field_touch
  | Joinpoint.Sh_execution _ | Joinpoint.Sh_call _ -> (
      match a.Aspects.Advice.time with
      | Aspects.Advice.Before -> Insert_before
      | Aspects.Advice.After_returning -> Insert_after
      | Aspects.Advice.After | Aspects.Advice.Around -> Wrap)

(* --- per-aspect facts -------------------------------------------------- *)

let expr_calls acc e =
  Code.Jexpr.fold_calls
    (fun acc (recv, name, _) ->
      if String.equal name "proceed" && recv = None then acc else name :: acc)
    acc e

let expr_sets acc e =
  Code.Jexpr.fold_assigns
    (fun acc (lhs, _) ->
      match lhs with Code.Jexpr.E_field (_, f) -> f :: acc | _ -> acc)
    acc e

let named_local found stmt =
  match stmt with
  | Code.Jstmt.S_local (Code.Jtype.T_named _, _, _) -> true
  | _ -> found

type aspect_info = {
  g : Aspects.Generator.generated;
  exec_apps : (Joinpoint.shadow * Aspects.Advice.t) list;
  stmt_apps : (Joinpoint.shadow * Aspects.Advice.t) list;
  intro_calls : string list;  (* call names its woven bodies introduce *)
  intro_sets : string list;  (* field names its woven bodies assign *)
  intro_named_decl : bool;
      (* adds named-type fields or locals that can change receiver
         resolution in advised methods *)
  it_patterns : Aspects.Pattern.t list;
  it_exec : (Aspects.Pattern.t * string) list;
      (* inter-type methods with a body: new execution shadows *)
}

(* [shadows]: every shadow of the program, program order. *)
let info_of shadows (g : Aspects.Generator.generated) =
  let aspect = g.Aspects.Generator.aspect in
  let exec_apps = ref [] and stmt_apps = ref [] in
  List.iter
    (fun (a : Aspects.Advice.t) ->
      let wants_exec, wants_stmt = Matcher.kinds a.Aspects.Advice.pointcut in
      let decide = Matcher.matches a.Aspects.Advice.pointcut in
      List.iter
        (fun s ->
          match s with
          | Joinpoint.Sh_execution _ ->
              if wants_exec && decide s then exec_apps := (s, a) :: !exec_apps
          | Joinpoint.Sh_call _ | Joinpoint.Sh_field_set _ ->
              if wants_stmt && decide s then stmt_apps := (s, a) :: !stmt_apps)
        shadows)
    aspect.Aspects.Aspect.advices;
  let exec_apps = List.rev !exec_apps and stmt_apps = List.rev !stmt_apps in
  (* bodies the weave can splice in: advice bodies of advice that applies
     somewhere, plus every inter-type method body *)
  let applying_advice (a : Aspects.Advice.t) =
    List.exists (fun (_, a') -> a' == a) exec_apps
    || List.exists (fun (_, a') -> a' == a) stmt_apps
  in
  let woven_bodies =
    List.filter_map
      (fun (a : Aspects.Advice.t) ->
        if applying_advice a then Some a.Aspects.Advice.body else None)
      aspect.Aspects.Aspect.advices
    @ List.filter_map
        (fun it ->
          match it with
          | Aspects.Aspect.It_method (_, m) -> m.Code.Jdecl.body
          | Aspects.Aspect.It_field _ -> None)
        aspect.Aspects.Aspect.intertypes
  in
  let exprs =
    List.fold_left
      (List.fold_left (Code.Jstmt.fold_expr (fun acc e -> e :: acc)))
      [] woven_bodies
  in
  let intro_calls =
    List.sort_uniq String.compare (List.fold_left expr_calls [] exprs)
  in
  let intro_sets =
    List.sort_uniq String.compare (List.fold_left expr_sets [] exprs)
  in
  let intro_named_decl =
    List.fold_left (List.fold_left (Code.Jstmt.fold named_local)) false woven_bodies
    || List.exists
         (fun it ->
           match it with
           | Aspects.Aspect.It_field (_, f) -> (
               match f.Code.Jdecl.field_type with
               | Code.Jtype.T_named _ -> true
               | _ -> false)
           | Aspects.Aspect.It_method _ -> false)
         aspect.Aspects.Aspect.intertypes
  in
  let it_patterns =
    List.map
      (function
        | Aspects.Aspect.It_field (p, _) | Aspects.Aspect.It_method (p, _) -> p)
      aspect.Aspects.Aspect.intertypes
  in
  let it_exec =
    List.filter_map
      (fun it ->
        match it with
        | Aspects.Aspect.It_method (p, m) when m.Code.Jdecl.body <> None ->
            Some (p, m.Code.Jdecl.method_name)
        | _ -> None)
      aspect.Aspects.Aspect.intertypes
  in
  {
    g;
    exec_apps;
    stmt_apps;
    intro_calls;
    intro_sets;
    intro_named_decl;
    it_patterns;
    it_exec;
  }

(* --- the pair rules ---------------------------------------------------- *)

(* May a pointcut match a shadow of [kind] we only know the member name
   of? Conservative: unknown sub-predicates answer "maybe". *)
let rec may_match (kind : [ `Call | `Set | `Execution ]) pc name =
  match (kind, pc) with
  | `Call, Aspects.Pointcut.Call mp | `Execution, Aspects.Pointcut.Execution mp ->
      Aspects.Pattern.matches mp.Aspects.Pattern.mp_method name
  | `Set, Aspects.Pointcut.Set_field (_, fp) -> Aspects.Pattern.matches fp name
  | _, Aspects.Pointcut.(Call _ | Execution _ | Set_field _) -> false
  | _, Aspects.Pointcut.(Within _ | Not _) -> true
  | _, Aspects.Pointcut.And (a, b) -> may_match kind a name && may_match kind b name
  | _, Aspects.Pointcut.Or (a, b) -> may_match kind a name || may_match kind b name

let patterns_may_overlap p q =
  Aspects.Pattern.is_wildcard p
  || Aspects.Pattern.is_wildcard q
  || String.equal p q

let ends_in_return stmts =
  match List.rev stmts with
  | Code.Jstmt.S_return _ :: _ -> true
  | _ -> false

(* Execution advice from two different aspects at the same shadow commutes
   only in one shape: insert-before against insert-after-return, where the
   before-body does not itself end in a return (a trailing return in the
   prepended body would become the insertion anchor of the other side when
   the original body is empty). Everything else — wrap against anything,
   two inserts on the same side — is order-observable. *)
let exec_commutes (x : Aspects.Advice.t) (y : Aspects.Advice.t) =
  match (x.Aspects.Advice.time, y.Aspects.Advice.time) with
  | Aspects.Advice.Before, Aspects.Advice.After_returning ->
      not (ends_in_return x.Aspects.Advice.body)
  | Aspects.Advice.After_returning, Aspects.Advice.Before ->
      not (ends_in_return y.Aspects.Advice.body)
  | _ -> false

let stmt_method = function
  | Joinpoint.Sh_call { within_class; within_method; _ }
  | Joinpoint.Sh_field_set { within_class; within_method; _ } ->
      (within_class, within_method)
  | Joinpoint.Sh_execution { class_name; method_name } ->
      (class_name, method_name)

let aspect_name info =
  info.g.Aspects.Generator.aspect.Aspects.Aspect.aspect_name

let time_str (a : Aspects.Advice.t) =
  Aspects.Advice.time_to_string a.Aspects.Advice.time

(* The rules, first hit wins. [ia] has the higher precedence. *)
let find_conflict ia ib =
  let conflict witness reason = Some (Conflicting { witness; reason }) in
  (* shared execution shadow with non-commuting advice *)
  let shared_exec () =
    List.find_map
      (fun (s, x) ->
        List.find_map
          (fun (s', y) ->
            if s = s' && not (exec_commutes x y) then
              conflict (Some s)
                (Printf.sprintf "non-commuting advice at a shared join point (%s %s vs %s %s)"
                   (aspect_name ia) (time_str x) (aspect_name ib) (time_str y))
            else None)
          ib.exec_apps)
      ia.exec_apps
  in
  (* both wrap statements in the same method: wrapping order and shadow
     discovery inside the other's wrapper are order-observable *)
  let shared_stmt () =
    List.find_map
      (fun (s, _) ->
        let m = stmt_method s in
        if List.exists (fun (s', _) -> stmt_method s' = m) ib.stmt_apps then
          conflict (Some s)
            (Printf.sprintf "both wrap statements inside %s.%s" (fst m) (snd m))
        else None)
      ia.stmt_apps
  in
  (* statement wrapping can swallow the trailing return that
     after-returning execution advice anchors on *)
  let stmt_vs_after_returning a b =
    List.find_map
      (fun (s, _) ->
        let cls, mth = stmt_method s in
        List.find_map
          (fun (s', (y : Aspects.Advice.t)) ->
            match s' with
            | Joinpoint.Sh_execution { class_name; method_name }
              when String.equal class_name cls
                   && String.equal method_name mth
                   && y.Aspects.Advice.time = Aspects.Advice.After_returning ->
                conflict (Some s)
                  (Printf.sprintf
                     "%s wraps statements in %s.%s where %s's after-returning advice anchors on the trailing return"
                     (aspect_name a) cls mth (aspect_name b))
            | _ -> None)
          b.exec_apps)
      a.stmt_apps
  in
  (* shadows one aspect's woven bodies introduce, matched by the other *)
  let introduced a b =
    let stmt_advice_matching f =
      List.find_map
        (fun (adv : Aspects.Advice.t) ->
          let _, wants_stmt = Matcher.kinds adv.Aspects.Advice.pointcut in
          if wants_stmt && f adv.Aspects.Advice.pointcut then Some adv else None)
        b.g.Aspects.Generator.aspect.Aspects.Aspect.advices
    in
    match
      List.find_map
        (fun n ->
          Option.map (fun adv -> (n, adv))
            (stmt_advice_matching (fun pc -> may_match `Call pc n)))
        a.intro_calls
    with
    | Some (n, _) ->
        conflict
          (Some
             (Joinpoint.Sh_call
                {
                  within_class = "<woven advice>";
                  within_method = "*";
                  receiver_class = None;
                  method_name = n;
                }))
          (Printf.sprintf "%s weaves calls to %s() that %s's statement advice may match"
             (aspect_name a) n (aspect_name b))
    | None -> (
        match
          List.find_map
            (fun f ->
              Option.map (fun adv -> (f, adv))
                (stmt_advice_matching (fun pc -> may_match `Set pc f)))
            a.intro_sets
        with
        | Some (f, _) ->
            conflict
              (Some
                 (Joinpoint.Sh_field_set
                    {
                      within_class = "<woven advice>";
                      within_method = "*";
                      target_class = "?";
                      field_name = f;
                    }))
              (Printf.sprintf
                 "%s weaves assignments to %s that %s's statement advice may match"
                 (aspect_name a) f (aspect_name b))
        | None -> None)
  in
  (* execution shadows created by inter-type methods *)
  let intertype_exec a b =
    List.find_map
      (fun (p, mname) ->
        let hit =
          List.exists
            (fun (adv : Aspects.Advice.t) ->
              let wants_exec, _ = Matcher.kinds adv.Aspects.Advice.pointcut in
              wants_exec && may_match `Execution adv.Aspects.Advice.pointcut mname)
            b.g.Aspects.Generator.aspect.Aspects.Aspect.advices
        in
        if hit then
          conflict
            (Some (Joinpoint.Sh_execution { class_name = p; method_name = mname }))
            (Printf.sprintf
               "%s introduces method %s() (classes %s) whose execution %s's advice may match"
               (aspect_name a) mname p (aspect_name b))
        else None)
      a.it_exec
  in
  (* two sets of inter-type members landing on overlapping classes: member
     order (and duplicate-field suppression) is weave-order-dependent *)
  let intertype_overlap () =
    List.find_map
      (fun p ->
        List.find_map
          (fun q ->
            if patterns_may_overlap p q then
              conflict None
                (Printf.sprintf
                   "both add inter-type members to classes matching %s and %s" p q)
            else None)
          ib.it_patterns)
      ia.it_patterns
  in
  (* named-type declarations can change receiver resolution, and with it
     the other aspect's statement-shadow identities *)
  let named_decl a b =
    let b_has_stmt_advice =
      List.exists
        (fun (adv : Aspects.Advice.t) ->
          snd (Matcher.kinds adv.Aspects.Advice.pointcut))
        b.g.Aspects.Generator.aspect.Aspects.Aspect.advices
    in
    if a.intro_named_decl && b_has_stmt_advice then
      conflict None
        (Printf.sprintf
           "%s adds named-type declarations that can change receiver resolution for %s's statement advice"
           (aspect_name a) (aspect_name b))
    else None
  in
  let ( <|> ) r f = match r with Some _ -> r | None -> f () in
  shared_exec ()
  <|> shared_stmt
  <|> (fun () -> stmt_vs_after_returning ia ib)
  <|> (fun () -> stmt_vs_after_returning ib ia)
  <|> (fun () -> introduced ia ib)
  <|> (fun () -> introduced ib ia)
  <|> (fun () -> intertype_exec ia ib)
  <|> (fun () -> intertype_exec ib ia)
  <|> intertype_overlap
  <|> (fun () -> named_decl ia ib)
  <|> fun () -> named_decl ib ia

let rec pairs_of = function
  | [] -> []
  | ia :: rest ->
      List.map
        (fun ib ->
          let verdict =
            match find_conflict ia ib with
            | Some v -> v
            | None -> Independent
          in
          { left = aspect_name ia; right = aspect_name ib; verdict })
        rest
      @ pairs_of rest

(* --- the report -------------------------------------------------------- *)

let analyze generated program =
  let ordered = Precedence.order generated in
  let shadows = Joinpoint.all_shadows program in
  let infos = List.map (info_of shadows) ordered in
  (* invert the per-aspect applications into per-shadow adviser lists;
     consecutive duplicate occurrences of one structural shadow would
     otherwise double their advisers *)
  let advisers : (Joinpoint.shadow, advising list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun info ->
      let add (s, (a : Aspects.Advice.t)) =
        let adv =
          {
            aspect_name = aspect_name info;
            concern = info.g.Aspects.Generator.aspect.Aspects.Aspect.concern;
            advice_name = a.Aspects.Advice.advice_name;
            time = a.Aspects.Advice.time;
            precedence = info.g.Aspects.Generator.seq;
            effect = effect_of a s;
          }
        in
        match Hashtbl.find_opt advisers s with
        | Some (prev :: _) when prev = adv -> ()
        | Some l -> Hashtbl.replace advisers s (adv :: l)
        | None -> Hashtbl.replace advisers s [ adv ]
      in
      List.iter add info.exec_apps;
      List.iter add info.stmt_apps)
    infos;
  let entries =
    List.filter_map
      (fun shadow ->
        match Hashtbl.find_opt advisers shadow with
        | None | Some [] -> None
        | Some advs ->
            let advs = List.rev advs in
            let concerns =
              List.sort_uniq String.compare (List.map (fun a -> a.concern) advs)
            in
            Some { at = shadow; advisers = advs; shared = List.length concerns > 1 })
      shadows
  in
  {
    entries;
    shared = List.filter (fun (e : entry) -> e.shared) entries;
    pairs = pairs_of infos;
  }

let render report =
  let entry_lines (e : entry) =
    (Printf.sprintf "%s %s"
       (if e.shared then "[!]" else "   ")
       (Joinpoint.describe e.at))
    :: List.map
         (fun a ->
           Printf.sprintf "      %d. %s/%s (%s, %s, %s)" a.precedence
             a.aspect_name a.advice_name a.concern
             (Aspects.Advice.time_to_string a.time)
             (effect_to_string a.effect))
         e.advisers
  in
  let pair_lines =
    match report.pairs with
    | [] -> []
    | pairs ->
        let independent, conflicting =
          List.partition (fun p -> p.verdict = Independent) pairs
        in
        Printf.sprintf "aspect pairs: %d independent, %d conflicting"
          (List.length independent)
          (List.length conflicting)
        :: List.map
             (fun p ->
               match p.verdict with
               | Independent ->
                   Printf.sprintf "    %s ~ %s: independent" p.left p.right
               | Conflicting { witness; reason } ->
                   Printf.sprintf "[!] %s x %s: %s%s" p.left p.right reason
                     (match witness with
                     | Some s -> Printf.sprintf " [at %s]" (Joinpoint.describe s)
                     | None -> ""))
             pairs
  in
  String.concat "\n"
    ((Printf.sprintf "%d advised join point(s), %d shared across concerns"
        (List.length report.entries)
        (List.length report.shared))
    :: (List.concat_map entry_lines report.entries @ pair_lines))
