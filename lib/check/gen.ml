(* ---- string pools ------------------------------------------------------- *)

(* Dotted, accented, CJK, emoji, XML-hostile: every pool entry is non-blank
   and newline-free (names travel in XML attributes). *)
let name_bases =
  [
    "alpha"; "Beta"; "gamma"; "Délta"; "épsilon"; "naïve"; "größe"; "émigré";
    "店番"; "😀smile"; "dot.ted"; "a.b.c"; "am&persand"; "less<than";
    "quo\"te"; "apos'trophe"; "two words"; "tab\tchar"; "über"; "Ωmega";
  ]

let stereotype_pool =
  [ "remote"; "transactional"; "sécurisé"; "日志"; "a&b"; "dotted.stereo" ]

let tag_keys = [ "doc"; "note"; "lévél"; "origin&x" ]

let tag_values =
  [
    "plain"; "café 😀"; "line one\nline two"; "a < b & \"c\" 'd'";
    "trailing space "; "…ellipsis…"; "&#fake;ref"; "]]>cdata-bait";
  ]

let constraint_bodies =
  [
    "inv: self.x < 1 & self.y > 0";
    "inv: name <> 'été'";
    "pre: 1 < 2 && \"quoted\"";
    "post: café 😀 <&> done";
    "inv: literal&#65;not-a-ref";
  ]

let initial_values = [ "0"; "<empty>"; "'é'"; "a&b"; "😀" ]

let fresh_name rng counter =
  let base = Prng.choose rng name_bases in
  incr counter;
  Printf.sprintf "%s_%d" base !counter

(* ---- slot bookkeeping ---------------------------------------------------- *)

type info =
  | I_pkg
  | I_cls of bool  (* abstract? *)
  | I_ifc
  | I_opn
  | I_other

type slot = { info : info; s_name : string; s_owner : int }

(* Gen-time mirror of Edit.apply's slot table, assuming every creation
   succeeds (true for constructive base scripts; harmless over-approximation
   for edit scripts, whose dangling references are skipped at apply time). *)
let scan root_name script =
  let slots = ref [ { info = I_pkg; s_name = root_name; s_owner = -1 } ] in
  let push s = slots := !slots @ [ s ] in
  List.iter
    (fun op ->
      match (op : Edit.op) with
      | Edit.Add_package { owner; name } ->
          push { info = I_pkg; s_name = name; s_owner = owner }
      | Edit.Add_class { owner; name; abstract } ->
          push { info = I_cls abstract; s_name = name; s_owner = owner }
      | Edit.Add_interface { owner; name } ->
          push { info = I_ifc; s_name = name; s_owner = owner }
      | Edit.Add_attribute { cls; name; _ } ->
          push { info = I_other; s_name = name; s_owner = cls }
      | Edit.Add_operation { owner; name; _ } ->
          push { info = I_opn; s_name = name; s_owner = owner }
      | Edit.Add_parameter { op; name; _ } ->
          push { info = I_other; s_name = name; s_owner = op }
      | Edit.Add_generalization { child; _ } ->
          push { info = I_other; s_name = "gen"; s_owner = child }
      | Edit.Add_association { owner; name; _ }
      | Edit.Add_enumeration { owner; name; _ }
      | Edit.Add_constraint { owner; name; _ } ->
          push { info = I_other; s_name = name; s_owner = owner }
      | Edit.Set_result _ | Edit.Add_realization _ | Edit.Add_stereotype _
      | Edit.Remove_stereotype _ | Edit.Set_tag _ | Edit.Remove_tag _
      | Edit.Rename _ | Edit.Delete _ ->
          ())
    script;
  Array.of_list !slots

let indices_of pred slots =
  let acc = ref [] in
  Array.iteri (fun i s -> if pred s then acc := i :: !acc) slots;
  List.rev !acc

(* ---- base scripts -------------------------------------------------------- *)

let random_dt rng classifiers =
  let scalar () =
    Prng.choose rng
      [ Edit.D_boolean; Edit.D_integer; Edit.D_real; Edit.D_string ]
  in
  match classifiers with
  | [] -> scalar ()
  | _ ->
      if Prng.chance rng 1 3 then
        let r = Edit.D_ref (Prng.choose rng classifiers) in
        if Prng.chance rng 1 4 then Edit.D_collection r else r
      else scalar ()

let base_script rng =
  let counter = ref 0 in
  let size = Prng.range rng 4 22 in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  (* mutable mirrors of the slot table *)
  let slots = ref [| { info = I_pkg; s_name = "fuzz"; s_owner = -1 } |] in
  let push s = slots := Array.append !slots [| s |] in
  let pkgs () = indices_of (fun s -> s.info = I_pkg) !slots in
  let classes () =
    indices_of (fun s -> match s.info with I_cls _ -> true | _ -> false) !slots
  in
  let abstract_classes () =
    indices_of (fun s -> s.info = I_cls true) !slots
  in
  let ifaces () = indices_of (fun s -> s.info = I_ifc) !slots in
  let opns () = indices_of (fun s -> s.info = I_opn) !slots in
  let gen_pairs = ref [] in
  for _ = 1 to size do
    let roll = Prng.int rng 100 in
    if roll < 14 then begin
      let owner = Prng.choose rng (pkgs ()) in
      let name = fresh_name rng counter in
      emit (Edit.Add_package { owner; name });
      push { info = I_pkg; s_name = name; s_owner = owner }
    end
    else if roll < 34 then begin
      let owner = Prng.choose rng (pkgs ()) in
      let name = fresh_name rng counter in
      let abstract = Prng.chance rng 1 4 in
      emit (Edit.Add_class { owner; name; abstract });
      push { info = I_cls abstract; s_name = name; s_owner = owner }
    end
    else if roll < 41 then begin
      let owner = Prng.choose rng (pkgs ()) in
      let name = fresh_name rng counter in
      emit (Edit.Add_interface { owner; name });
      push { info = I_ifc; s_name = name; s_owner = owner }
    end
    else if roll < 55 then begin
      match classes () with
      | [] -> ()
      | cs ->
          let cls = Prng.choose rng cs in
          let name = fresh_name rng counter in
          let typ = random_dt rng (classes () @ ifaces ()) in
          let static = Prng.chance rng 1 6 in
          let initial =
            if Prng.chance rng 1 4 then Some (Prng.choose rng initial_values)
            else None
          in
          emit (Edit.Add_attribute { cls; name; typ; static; initial });
          push { info = I_other; s_name = name; s_owner = cls }
    end
    else if roll < 67 then begin
      match classes () @ ifaces () with
      | [] -> ()
      | owners ->
          let owner = Prng.choose rng owners in
          let name = fresh_name rng counter in
          (* abstract operations only where a concrete class cannot end up
             holding them, keeping the base well-formed *)
          let may_abstract =
            (!slots).(owner).info = I_ifc
            || List.mem owner (abstract_classes ())
          in
          let abstract = may_abstract && Prng.chance rng 1 3 in
          let query = Prng.chance rng 1 4 in
          emit (Edit.Add_operation { owner; name; abstract; query });
          push { info = I_opn; s_name = name; s_owner = owner }
    end
    else if roll < 74 then begin
      match opns () with
      | [] -> ()
      | os ->
          let op = Prng.choose rng os in
          if Prng.bool rng then begin
            let name = fresh_name rng counter in
            let typ = random_dt rng (classes ()) in
            emit (Edit.Add_parameter { op; name; typ });
            push { info = I_other; s_name = name; s_owner = op }
          end
          else emit (Edit.Set_result { op; typ = random_dt rng (classes ()) })
    end
    else if roll < 80 then begin
      (* generalization from a later to a strictly earlier class: acyclic by
         construction, and each (child, parent) pair at most once so the
         derived "C->P" element names stay unique among siblings *)
      match classes () with
      | [] | [ _ ] -> ()
      | cs ->
          let child = Prng.choose rng cs in
          let earlier = List.filter (fun p -> p < child) cs in
          (match earlier with
          | [] -> ()
          | _ ->
              let parent = Prng.choose rng earlier in
              if not (List.mem (child, parent) !gen_pairs) then begin
                gen_pairs := (child, parent) :: !gen_pairs;
                emit (Edit.Add_generalization { child; parent });
                push { info = I_other; s_name = "gen"; s_owner = child }
              end)
    end
    else if roll < 84 then begin
      match (classes (), ifaces ()) with
      | cls :: _, ifc :: _ ->
          emit
            (Edit.Add_realization
               { cls = Prng.choose rng (cls :: classes ()); iface = ifc })
      | _ -> ()
    end
    else if roll < 88 then begin
      match classes () with
      | [] -> ()
      | cs ->
          let owner = Prng.choose rng (pkgs ()) in
          let name = fresh_name rng counter in
          let from_ = Prng.choose rng cs and to_ = Prng.choose rng cs in
          emit (Edit.Add_association { owner; name; from_; to_ });
          push { info = I_other; s_name = name; s_owner = owner }
    end
    else if roll < 91 then begin
      let owner = Prng.choose rng (pkgs ()) in
      let name = fresh_name rng counter in
      let literals =
        List.init (Prng.range rng 1 4) (fun _ -> fresh_name rng counter)
      in
      emit (Edit.Add_enumeration { owner; name; literals });
      push { info = I_other; s_name = name; s_owner = owner }
    end
    else if roll < 94 then begin
      let owner = Prng.choose rng (pkgs ()) in
      let name = fresh_name rng counter in
      let body = Prng.choose rng constraint_bodies in
      let all = Array.length !slots in
      let constrained =
        List.init (Prng.int rng 3) (fun _ -> Prng.int rng all)
      in
      emit (Edit.Add_constraint { owner; name; constrained; body });
      push { info = I_other; s_name = name; s_owner = owner }
    end
    else if roll < 97 then
      emit
        (Edit.Add_stereotype
           {
             target = Prng.int rng (Array.length !slots);
             stereotype = Prng.choose rng stereotype_pool;
           })
    else
      emit
        (Edit.Set_tag
           {
             target = Prng.int rng (Array.length !slots);
             key = Prng.choose rng tag_keys;
             value = Prng.choose rng tag_values;
           })
  done;
  (* occasionally plant a qualified-name collision: a root-level class whose
     dotted simple name spells the path of a nested element *)
  (if Prng.chance rng 1 4 then
     let nested =
       indices_of
         (fun s -> s.s_owner > 0 && (!slots).(s.s_owner).s_owner = 0)
         !slots
     in
     match nested with
     | [] -> ()
     | _ ->
         let j = Prng.choose rng nested in
         let owner_name = (!slots).((!slots).(j).s_owner).s_name in
         let name = owner_name ^ "." ^ (!slots).(j).s_name in
         emit (Edit.Add_class { owner = 0; name; abstract = false }));
  List.rev !ops

(* ---- edit scripts -------------------------------------------------------- *)

let edit_script rng ~base =
  let counter = ref 10_000 in
  let slots = ref (scan "fuzz" base) in
  let push s = slots := Array.append !slots [| s |] in
  let total () = Array.length !slots in
  let any () = Prng.int rng (total ()) in
  let existing_name () = (!slots).(any ()).s_name in
  let size = Prng.range rng 1 12 in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  for _ = 1 to size do
    let roll = Prng.int rng 100 in
    if roll < 12 then emit (Edit.Delete { target = any () })
    else if roll < 22 then begin
      (* rename: fresh, colliding, dotted-colliding, or empty *)
      let target = any () in
      let name =
        let r = Prng.int rng 10 in
        if r < 4 then fresh_name rng counter
        else if r < 7 then existing_name ()
        else if r < 9 then
          let j = any () in
          let o = (!slots).(j).s_owner in
          if o >= 0 then (!slots).(o).s_name ^ "." ^ (!slots).(j).s_name
          else fresh_name rng counter
        else ""
      in
      emit (Edit.Rename { target; name })
    end
    else if roll < 32 then begin
      (* generalization in an arbitrary direction: cycles allowed *)
      emit (Edit.Add_generalization { child = any (); parent = any () })
    end
    else if roll < 42 then begin
      let owner = any () in
      let name = fresh_name rng counter in
      let abstract = Prng.chance rng 1 3 in
      emit (Edit.Add_class { owner; name; abstract });
      push { info = I_cls abstract; s_name = name; s_owner = owner }
    end
    else if roll < 50 then begin
      let cls = any () in
      let name =
        if Prng.chance rng 1 4 then existing_name ()
        else fresh_name rng counter
      in
      emit
        (Edit.Add_attribute
           {
             cls;
             name;
             typ = random_dt rng [ any () ];
             static = Prng.bool rng;
             initial =
               (if Prng.bool rng then Some (Prng.choose rng initial_values)
                else None);
           });
      push { info = I_other; s_name = name; s_owner = cls }
    end
    else if roll < 58 then begin
      let owner = any () in
      let name =
        if Prng.chance rng 1 4 then existing_name ()
        else fresh_name rng counter
      in
      (* abstract operations may land on concrete classes here: the edited
         model is allowed to be ill-formed *)
      emit
        (Edit.Add_operation
           { owner; name; abstract = Prng.chance rng 1 3; query = Prng.bool rng });
      push { info = I_opn; s_name = name; s_owner = owner }
    end
    else if roll < 64 then begin
      let owner = any () in
      let name = fresh_name rng counter in
      let lit = fresh_name rng counter in
      let literals =
        if Prng.chance rng 1 3 then [ lit; lit ]  (* duplicate literal *)
        else [ lit; fresh_name rng counter ]
      in
      emit (Edit.Add_enumeration { owner; name; literals });
      push { info = I_other; s_name = name; s_owner = owner }
    end
    else if roll < 72 then
      emit
        (Edit.Add_stereotype
           { target = any (); stereotype = Prng.choose rng stereotype_pool })
    else if roll < 78 then
      emit
        (Edit.Remove_stereotype
           { target = any (); stereotype = Prng.choose rng stereotype_pool })
    else if roll < 86 then
      emit
        (Edit.Set_tag
           {
             target = any ();
             key = Prng.choose rng tag_keys;
             value = Prng.choose rng tag_values;
           })
    else if roll < 90 then
      emit (Edit.Remove_tag { target = any (); key = Prng.choose rng tag_keys })
    else if roll < 95 then begin
      let owner = any () in
      let name = fresh_name rng counter in
      emit (Edit.Add_package { owner; name });
      push { info = I_pkg; s_name = name; s_owner = owner }
    end
    else begin
      let owner = any () in
      let name = fresh_name rng counter in
      emit
        (Edit.Add_constraint
           {
             owner;
             name;
             constrained = [ any (); any () ];
             body = Prng.choose rng constraint_bodies;
           });
      push { info = I_other; s_name = name; s_owner = owner }
    end
  done;
  List.rev !ops

(* ---- weaving cases ------------------------------------------------------- *)

let method_names = [ "m0"; "m1"; "m2"; "deposit" ]
let class_names = [ "C0"; "C1"; "C2"; "Account" ]

let random_body rng cls =
  let stmt i =
    match Prng.int rng 9 with
    | 0 ->
        Code.Jstmt.S_local
          (Code.Jtype.T_int, Printf.sprintf "v%d" i, Some (Code.Jexpr.E_int i))
    | 1 ->
        Code.Jstmt.S_expr
          (Code.Jexpr.E_call (None, Prng.choose rng method_names, []))
    | 2 ->
        Code.Jstmt.S_expr
          (Code.Jexpr.E_call
             (Some Code.Jexpr.E_this, Prng.choose rng method_names, []))
    | 3 ->
        Code.Jstmt.S_expr
          (Code.Jexpr.E_assign
             (Code.Jexpr.E_field (Code.Jexpr.E_this, "f"), Code.Jexpr.E_int i))
    | 4 ->
        (* [mystery] is never a parameter, field or local, so the receiver
           does not resolve — exercises the wildcard matching of
           unknown-receiver call shadows. *)
        Code.Jstmt.S_expr
          (Code.Jexpr.E_call
             ( Some (Code.Jexpr.E_name "mystery"),
               Prng.choose rng method_names,
               [] ))
    | 5 ->
        Code.Jstmt.S_if
          ( Code.Jexpr.E_binary
              ("<", Code.Jexpr.E_name "f", Code.Jexpr.E_int 10),
            [
              Code.Jstmt.S_expr
                (Code.Jexpr.E_call (None, Prng.choose rng method_names, []));
            ],
            [] )
    | 6 ->
        (* shadows under try/catch/finally: a call in the handler and a
           field set in the finally block *)
        Code.Jstmt.S_try
          ( [ Code.Jstmt.S_throw (Code.Jexpr.E_new ("RuntimeException", [])) ],
            [
              ( Code.Jtype.T_named "RuntimeException",
                "e",
                [
                  Code.Jstmt.S_expr
                    (Code.Jexpr.E_call (None, Prng.choose rng method_names, []));
                ] );
            ],
            [
              Code.Jstmt.S_expr
                (Code.Jexpr.E_assign
                   ( Code.Jexpr.E_field (Code.Jexpr.E_this, "f"),
                     Code.Jexpr.E_int 0 ));
            ] )
    | 7 ->
        Code.Jstmt.S_while
          ( Code.Jexpr.E_binary
              ("<", Code.Jexpr.E_name "f", Code.Jexpr.E_int 3),
            [
              Code.Jstmt.S_expr
                (Code.Jexpr.E_assign
                   ( Code.Jexpr.E_field (Code.Jexpr.E_this, "f"),
                     Code.Jexpr.E_binary
                       ("+", Code.Jexpr.E_name "f", Code.Jexpr.E_int 1) ));
            ] )
    | _ ->
        Code.Jstmt.S_sync
          ( Code.Jexpr.E_this,
            [
              Code.Jstmt.S_block
                [
                  Code.Jstmt.S_expr
                    (Code.Jexpr.E_call
                       (Some Code.Jexpr.E_this, Prng.choose rng method_names, []));
                ];
            ] )
  in
  let n = Prng.range rng 1 4 in
  let body = List.init n stmt in
  if Prng.bool rng then
    body
    @ [
        Code.Jstmt.S_return
          (Some (Code.Jexpr.E_field (Code.Jexpr.E_this, "f")));
      ]
  else body @ [ Code.Jstmt.S_comment ("end of " ^ cls) ]

let random_class rng name =
  let methods =
    List.filter_map
      (fun mname ->
        if Prng.chance rng 2 3 then
          Some
            {
              Code.Jdecl.method_name = mname;
              method_mods = [ Code.Jdecl.M_public ];
              return_type = Code.Jtype.T_int;
              params = [];
              throws = [];
              body = Some (random_body rng name);
            }
        else None)
      method_names
  in
  {
    Code.Jdecl.class_name = name;
    class_mods = [ Code.Jdecl.M_public ];
    extends = None;
    implements = [];
    fields =
      [
        {
          Code.Jdecl.field_name = "f";
          field_type = Code.Jtype.T_int;
          field_mods = [ Code.Jdecl.M_private ];
          field_init = Some (Code.Jexpr.E_int 0);
        };
      ];
    methods;
  }

(* Shapes chosen to land in every decider pattern specialization:
   literal, bare "*", prefix, suffix, infix ("*..*") and the generic
   multi-star DP fallback ("m*t", "*e*0"). *)
let pattern_pool =
  [
    "C0"; "C1"; "C*"; "Account"; "Acc*"; "*"; "*0"; "m0"; "m*"; "de*"; "deposit";
    "*epos*"; "*0*"; "m*t"; "*e*0"; "d*p*t";
  ]

let random_pointcut rng =
  let pat () = Prng.choose rng pattern_pool in
  let leaf () =
    match Prng.int rng 6 with
    | 0 -> Aspects.Pointcut.execution (pat ()) (pat ())
    | 1 -> Aspects.Pointcut.call (pat ()) (pat ())
    | 2 -> Aspects.Pointcut.set_field (pat ()) "f"
    | 3 ->
        (* wildcard class: also selects calls whose receiver class does
           not resolve, so the optimistic-match path gets fuzzed *)
        Aspects.Pointcut.call "*" (pat ())
    | 4 -> Aspects.Pointcut.set_field "*" "f"
    | _ -> Aspects.Pointcut.execution (pat ()) "*"
  in
  match Prng.int rng 10 with
  | 0 -> Aspects.Pointcut.And (leaf (), Aspects.Pointcut.within (pat ()))
  | 1 -> Aspects.Pointcut.Or (leaf (), leaf ())
  | 2 ->
      Aspects.Pointcut.And
        (leaf (), Aspects.Pointcut.Not (Aspects.Pointcut.within (pat ())))
  | 3 ->
      (* negation directly over every leaf kind, not just [within]: the
         compiled-decider oracle needs [Not] observed against execution,
         call and set shadows alike *)
      Aspects.Pointcut.Not (leaf ())
  | 4 -> Aspects.Pointcut.Or (Aspects.Pointcut.Not (leaf ()), leaf ())
  | _ -> leaf ()

let log_call text =
  Code.Jstmt.S_expr
    (Code.Jexpr.E_call
       ( None,
         "log",
         [ Code.Jexpr.E_name "thisJoinPoint"; Code.Jexpr.E_string text ] ))

let random_advice rng i =
  let time =
    Prng.choose rng
      Aspects.Advice.[ Before; After; After_returning; Around ]
  in
  let tag = Printf.sprintf "adv%d" i in
  let body =
    match time with
    | Aspects.Advice.Around -> [ log_call tag; Aspects.Advice.proceed ]
    | _ -> [ log_call tag ]
  in
  Aspects.Advice.make ~name:tag time (random_pointcut rng) body

type weave_case = {
  program : Code.Junit.program;
  aspects : Aspects.Generator.generated list;
}

let weave_case rng =
  let n_classes = Prng.range rng 1 3 in
  let classes =
    List.filteri (fun i _ -> i < n_classes) class_names
    |> List.map (fun name -> Code.Jdecl.Class (random_class rng name))
  in
  let program = [ Code.Junit.unit_ ~package:"fuzz" classes ] in
  let n_aspects = Prng.range rng 1 4 in
  let seqs = Prng.shuffle rng (List.init n_aspects (fun i -> i)) in
  let aspects =
    List.mapi
      (fun i seq ->
        let name = Printf.sprintf "A%d" i in
        let intertypes =
          if Prng.chance rng 1 4 then
            [
              Aspects.Aspect.It_field
                ( Prng.choose rng [ "C*"; "*" ],
                  {
                    Code.Jdecl.field_name = "it_" ^ name;
                    field_type = Code.Jtype.T_int;
                    field_mods = [ Code.Jdecl.M_private ];
                    field_init = None;
                  } );
            ]
          else []
        in
        let advices =
          List.init (Prng.range rng 1 2) (fun j -> random_advice rng j)
        in
        {
          Aspects.Generator.aspect =
            Aspects.Aspect.make ~intertypes ~advices ~name ~concern:"fuzz" ();
          from_transformation = Printf.sprintf "T%d" i;
          seq;
        })
      seqs
  in
  { program; aspects }

let pp_weave_case ppf { program; aspects } =
  Format.fprintf ppf "aspects (name/seq):@.";
  List.iter
    (fun (g : Aspects.Generator.generated) ->
      Format.fprintf ppf "  %s seq=%d advices=%d@."
        g.Aspects.Generator.aspect.Aspects.Aspect.aspect_name
        g.Aspects.Generator.seq
        (List.length g.Aspects.Generator.aspect.Aspects.Aspect.advices))
    aspects;
  Format.fprintf ppf "program:@.%s@." (Code.Printer.program_to_string program)

(* One structural edit to a program, for the class-locality oracle.
   Edits go through [Code.Junit.update_class] or rebuild a single unit, so
   every declaration the edit does not touch is returned physically
   unchanged. Degenerate draws (no class, no method to hit) fall back to
   the identity, which the oracle tolerates. *)
let program_edit rng (program : Code.Junit.program) =
  let classes = Code.Junit.classes program in
  let pick_class () =
    match classes with [] -> None | l -> Some (Prng.choose rng l)
  in
  match Prng.int rng 7 with
  | 0 -> (
      (* replace one method body *)
      match pick_class () with
      | Some c when c.Code.Jdecl.methods <> [] ->
          let m = Prng.choose rng c.Code.Jdecl.methods in
          Code.Junit.update_class program c.Code.Jdecl.class_name (fun c ->
              {
                c with
                Code.Jdecl.methods =
                  List.map
                    (fun m' ->
                      if m' == m then
                        {
                          m with
                          Code.Jdecl.body =
                            Some (random_body rng c.Code.Jdecl.class_name);
                        }
                      else m')
                    c.Code.Jdecl.methods;
              })
      | _ -> program)
  | 1 -> (
      (* add a method *)
      match pick_class () with
      | Some c ->
          let mname = Prng.choose rng method_names in
          let body = random_body rng c.Code.Jdecl.class_name in
          Code.Junit.update_class program c.Code.Jdecl.class_name (fun c ->
              Code.Jdecl.add_method
                {
                  Code.Jdecl.method_name = mname;
                  method_mods = [ Code.Jdecl.M_public ];
                  return_type = Code.Jtype.T_int;
                  params = [];
                  throws = [];
                  body = Some body;
                }
                c)
      | None -> program)
  | 2 -> (
      (* remove a method *)
      match pick_class () with
      | Some c when c.Code.Jdecl.methods <> [] ->
          let m = Prng.choose rng c.Code.Jdecl.methods in
          Code.Junit.update_class program c.Code.Jdecl.class_name (fun c ->
              {
                c with
                Code.Jdecl.methods =
                  List.filter (fun m' -> m' != m) c.Code.Jdecl.methods;
              })
      | _ -> program)
  | 3 -> (
      (* add a field *)
      match pick_class () with
      | Some c ->
          Code.Junit.update_class program c.Code.Jdecl.class_name (fun c ->
              Code.Jdecl.add_field
                {
                  Code.Jdecl.field_name = Printf.sprintf "g%d" (Prng.int rng 3);
                  field_type = Code.Jtype.T_int;
                  field_mods = [ Code.Jdecl.M_private ];
                  field_init = Some (Code.Jexpr.E_int 0);
                }
                c)
      | None -> program)
  | 4 -> (
      (* add a class (possibly shadowing an existing name) *)
      let fresh = random_class rng (Prng.choose rng class_names) in
      match program with
      | u :: rest ->
          { u with Code.Junit.decls = u.Code.Junit.decls @ [ Code.Jdecl.Class fresh ] }
          :: rest
      | [] -> [ Code.Junit.unit_ ~package:"fuzz" [ Code.Jdecl.Class fresh ] ])
  | 5 -> (
      (* remove a class *)
      match pick_class () with
      | Some c ->
          List.map
            (fun u ->
              {
                u with
                Code.Junit.decls =
                  List.filter
                    (function
                      | Code.Jdecl.Class c' -> c' != c
                      | Code.Jdecl.Interface _ -> true)
                    u.Code.Junit.decls;
              })
            program
      | None -> program)
  | _ -> (
      (* rename a class *)
      match pick_class () with
      | Some c ->
          let name = Prng.choose rng class_names in
          Code.Junit.update_class program c.Code.Jdecl.class_name (fun c ->
              { c with Code.Jdecl.class_name = name })
      | None -> program)

(* ---- character-reference armoring ---------------------------------------- *)

(* Decode one UTF-8 scalar starting at [i]; [None] for malformed bytes. *)
let utf8_decode s i =
  let len = String.length s in
  let byte k = Char.code s.[k] in
  let cont k = k < len && byte k land 0xC0 = 0x80 in
  let b0 = byte i in
  if b0 < 0x80 then Some (b0, 1)
  else if b0 land 0xE0 = 0xC0 && cont (i + 1) then
    let cp = ((b0 land 0x1F) lsl 6) lor (byte (i + 1) land 0x3F) in
    if cp >= 0x80 then Some (cp, 2) else None
  else if b0 land 0xF0 = 0xE0 && cont (i + 1) && cont (i + 2) then
    let cp =
      ((b0 land 0x0F) lsl 12)
      lor ((byte (i + 1) land 0x3F) lsl 6)
      lor (byte (i + 2) land 0x3F)
    in
    if cp >= 0x800 && not (cp >= 0xD800 && cp <= 0xDFFF) then Some (cp, 3)
    else None
  else if
    b0 land 0xF8 = 0xF0 && cont (i + 1) && cont (i + 2) && cont (i + 3)
  then
    let cp =
      ((b0 land 0x07) lsl 18)
      lor ((byte (i + 1) land 0x3F) lsl 12)
      lor ((byte (i + 2) land 0x3F) lsl 6)
      lor (byte (i + 3) land 0x3F)
    in
    if cp >= 0x10000 && cp <= 0x10FFFF then Some (cp, 4) else None
  else None

let armor_string rng buf ~in_attr s =
  let len = String.length s in
  let plain c =
    match c with
    | '&' -> Buffer.add_string buf "&amp;"
    | '<' -> Buffer.add_string buf "&lt;"
    | '>' -> Buffer.add_string buf "&gt;"
    | '"' when in_attr -> Buffer.add_string buf "&quot;"
    | '\'' when in_attr -> Buffer.add_string buf "&apos;"
    | c -> Buffer.add_char buf c
  in
  let rec walk i =
    if i < len then
      match utf8_decode s i with
      | Some (cp, width) ->
          if Prng.chance rng 1 4 then begin
            if Prng.bool rng then Buffer.add_string buf (Printf.sprintf "&#%d;" cp)
            else Buffer.add_string buf (Printf.sprintf "&#x%X;" cp);
            walk (i + width)
          end
          else begin
            for k = i to i + width - 1 do
              plain s.[k]
            done;
            walk (i + width)
          end
      | None ->
          (* malformed byte: pass through untouched *)
          Buffer.add_char buf s.[i];
          walk (i + 1)
  in
  walk 0

let armor rng tree =
  let buf = Buffer.create 1024 in
  let rec render node =
    match (node : Xmi.Xml.t) with
    | Xmi.Xml.Text s -> armor_string rng buf ~in_attr:false s
    | Xmi.Xml.Elem { tag; attrs; children } ->
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        List.iter
          (fun (k, v) ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf k;
            Buffer.add_string buf "=\"";
            armor_string rng buf ~in_attr:true v;
            Buffer.add_char buf '"')
          attrs;
        if children = [] then Buffer.add_string buf "/>"
        else begin
          Buffer.add_char buf '>';
          List.iter render children;
          Buffer.add_string buf "</";
          Buffer.add_string buf tag;
          Buffer.add_char buf '>'
        end
  in
  render tree;
  Buffer.contents buf

(* ---- OCL constraint generation for the differential oracle ---------------- *)

(* Names mentioned anywhere in the scripts: the interesting probe targets
   are names that exist in the base, names the edits introduce or rename
   to, and names that exist nowhere — the pools below mix all three. *)
let script_names script =
  List.filter_map
    (fun (op : Edit.op) ->
      match op with
      | Edit.Add_package { name; _ }
      | Edit.Add_class { name; _ }
      | Edit.Add_interface { name; _ }
      | Edit.Add_attribute { name; _ }
      | Edit.Add_operation { name; _ }
      | Edit.Add_parameter { name; _ }
      | Edit.Add_association { name; _ }
      | Edit.Add_enumeration { name; _ }
      | Edit.Add_constraint { name; _ }
      | Edit.Rename { name; _ } -> Some name
      | _ -> None)
    script

let ocl_metaclasses =
  [ "Class"; "Interface"; "Attribute"; "Operation"; "Package"; "Enumeration";
    "Constraint"; "Element" ]

(* Bodies stress every path the compile/plan/extent layer takes: the three
   planner shapes (both equality orientations, probe inside an outer
   iterator, rhs depending on an outer binding or on [self], guarded
   forAll with a literal guard), shapes the planner must refuse (iterator
   variable on both sides, shadowed classifier, a guard mentioning the
   iterator), plain extent walks, and ill-formed bodies — whose parse
   and evaluation errors must also agree between the cached and naive
   paths. Generated names include the XML-hostile pool entries (quotes,
   '&', spaces), so some bodies are deliberately unparseable. *)
let ocl_constraint rng ~names i =
  let name () = Prng.choose rng names in
  let mc () = Prng.choose rng ocl_metaclasses in
  let lit () = Printf.sprintf "'%s'" (name ()) in
  let cname = Printf.sprintf "c%d" i in
  let template = Prng.int rng 25 in
  let body, context =
    match template with
    | 0 ->
        (Printf.sprintf "%s.allInstances()->exists(x | x.name = %s)" (mc ())
           (lit ()), None)
    | 1 ->
        (Printf.sprintf "%s.allInstances()->exists(x | %s = x.name)" (mc ())
           (lit ()), None)
    | 2 ->
        (Printf.sprintf "%s.allInstances()->select(x | x.name = %s)->size() >= %d"
           (mc ()) (lit ()) (Prng.int rng 3), None)
    | 3 ->
        (Printf.sprintf "Sequence{%s, %s}->forAll(n | %s.allInstances()->exists(x | x.name = n))"
           (lit ()) (lit ()) (mc ()), None)
    | 4 ->
        (Printf.sprintf "%s.allInstances()->forAll(x | x.name.size() >= 0)"
           (mc ()), None)
    | 5 ->
        (* shadowed classifier: the probe must fall back to the fold, which
           errors identically on both paths *)
        let k = mc () in
        (Printf.sprintf "let %s = Sequence{%s} in %s.allInstances()->exists(x | x.name = %s)"
           k (lit ()) k (lit ()), None)
    | 6 ->
        (* iterator variable on both sides: not planable *)
        (Printf.sprintf "%s.allInstances()->select(x | x.name = x.name)->size() = %s.allInstances()->size()"
           (mc ()) (mc ()), None)
    | 7 ->
        (* unbound rhs: errors on a non-empty extent, false on an empty one *)
        (Printf.sprintf "%s.allInstances()->exists(x | x.name = missing%d)"
           (mc ()) (Prng.int rng 3), None)
    | 8 ->
        (Printf.sprintf "Class.allInstances()->exists(c | c.name = self.name)",
         Some (mc ()))
    | 9 ->
        (Printf.sprintf "self.name = %s implies self.name.size() >= 0" (lit ()),
         Some "Class")
    | 10 ->
        (Printf.sprintf "Element.allInstances()->select(x | x.name = %s)->notEmpty()"
           (lit ()), None)
    | 11 ->
        (* the guarded-forAll planner shape, literal guard *)
        (Printf.sprintf
           "%s.allInstances()->forAll(x | Set{%s, %s}->includes(x.name) implies x.name.size() >= 0)"
           (mc ()) (lit ()) (lit ()), None)
    | 12 ->
        (* guarded forAll with a consequent that errors on matched
           elements: the probe must raise exactly what the fold raises *)
        (Printf.sprintf
           "%s.allInstances()->forAll(x | Sequence{%s}->includes(x.name) implies x.nope)"
           (mc ()) (lit ()), None)
    | 13 ->
        (* guard mentions the iterator variable: not planable *)
        (Printf.sprintf
           "%s.allInstances()->forAll(x | Set{x.name, %s}->includes(x.name) implies x.name.size() >= 0)"
           (mc ()) (lit ()), None)
    | 14 ->
        (Printf.sprintf "%s.allInstances()->exists(x | x.name = %s.concat('%d'))"
           (mc ()) (lit ()) (Prng.int rng 2), None)
    (* 15.. go past the planner shapes: if/not/neg/xor, iterate, every
       iterator form, the type ops, string and numeric calls, Bag literals
       and the arithmetic operators, so the cached and naive paths are
       compared over the whole evaluator, not just the probes. *)
    | 15 ->
        (Printf.sprintf
           "(if not (%s.allInstances()->isEmpty()) then - 1 < 0 else 1 < 0 \
            endif) xor %d = 2"
           (mc ()) (Prng.int rng 3), None)
    | 16 ->
        (Printf.sprintf
           "%s.allInstances()->iterate(x; acc : Integer = 0 | acc + 1) = \
            %s.allInstances()->size() and (3 * 4 + 10) mod 5 = 2 and 7 div 2 \
            = 3 and 9 - 2 = 7"
           (mc ()) (mc ()), None)
    | 17 ->
        (Printf.sprintf
           "%s.allInstances()->sortedBy(x | x.name)->collect(x | \
            x.name.size())->sum() >= 0"
           (mc ()), None)
    | 18 ->
        (Printf.sprintf
           "%s.allInstances()->isUnique(x | x.name) or \
            %s.allInstances()->one(x | x.name = %s) or \
            %s.allInstances()->reject(x | true)->isEmpty()"
           (mc ()) (mc ()) (lit ()) (mc ()), None)
    | 19 ->
        (Printf.sprintf
           "%s.allInstances()->select(x | x.oclIsKindOf(Class))->forAll(x | \
            x.oclAsType(Element).oclIsTypeOf(Class) or true) and \
            %s.allInstances()->any(x | x.name = %s).oclIsUndefined() = \
            %s.allInstances()->select(x | x.name = %s)->isEmpty()"
           (mc ()) (mc ()) (lit ()) (mc ()) (lit ()), None)
    | 20 ->
        (Printf.sprintf
           "Sequence{Sequence{1, 2}, Sequence{%d}}->flatten()->reverse()->at(1) \
            >= 0 and Set{1, 2}->union(Set{3})->including(%d)->size() >= 3"
           (Prng.int rng 4) (Prng.int rng 6), None)
    | 21 ->
        (Printf.sprintf
           "%s.toUpper().toLower().size() >= 0 and (0 - %d).abs() >= 0 and \
            (2.5).floor() = 2 and %s.substring(1, 1).size() = 1"
           (lit ()) (Prng.int rng 5) (lit ()), None)
    | 22 ->
        (Printf.sprintf
           "%s.allInstances()->forAll(x, y | x.name = y.name implies y.name = \
            x.name) and Sequence{1, 2, 3}->iterate(n; a : Integer = 1 | a * \
            n) = 6"
           (mc ()), None)
    | 23 ->
        (Printf.sprintf
           "Bag{1, 2, 2}->count(2) = 2 and Bag{1, %d}->excludes(9) and \
            Sequence{1, %d}->max() >= 1 and Sequence{2}->min() = 2"
           (Prng.int rng 4) (Prng.int rng 4), None)
    | _ ->
        (Printf.sprintf
           "%s.allInstances()->closure(x | Sequence{})->size() >= 0 and \
            Sequence{1}->prepend(0)->append(%d)->last() >= 0 and \
            Sequence{5, 6}->first() = 5"
           (mc ()) (Prng.int rng 7), None)
  in
  Ocl.Constraint_.make ?context ~name:cname body

let ocl_constraints rng ~base ~edits =
  let names =
    match script_names base @ script_names edits with
    | [] -> [ "orphan" ]
    | ns -> "NoSuchName" :: ns
  in
  List.init (Prng.range rng 4 8) (ocl_constraint rng ~names)
