(* Refinement steps as the bench draws them, and what a woven method must
   do at run time, predicted from the steps' parameters alone.

   The prediction never looks at the weaver's output. It encodes the
   middleware behaviour each concern promises: the first applied concern has the highest precedence and brackets the
   later ones; a fault injected on the called method throws on entry,
   before any advice; and, for a method that returns a value, the
   documented splice-at-proceed deviation: a return inside an around body
   skips the transaction commit, and an after-returning log survives only
   when no transaction is woven inside it. *)

type step =
  | Distribution of { remote : string list; protocol : string; registry : string }
  | Transactions of {
      transactional : string list;
      isolation : string;
      propagation : string;
    }
  | Security of { secured : string list; roles : string list; auth : string }
  | Logging of { level : string }  (** always [targets=*] *)

let names l = Transform.Params.V_list (List.map (fun n -> Transform.Params.V_ident n) l)
let str s = Transform.Params.V_string s

(* The concern key and the full parameter assignment, defaults spelled out
   so the prediction never depends on a formal's default value. *)
let params = function
  | Distribution { remote; protocol; registry } ->
      ( "distribution",
        [ ("remote", names remote); ("protocol", str protocol); ("registry", str registry) ] )
  | Transactions { transactional; isolation; propagation } ->
      ( "transactions",
        [
          ("transactional", names transactional);
          ("isolation", str isolation);
          ("propagation", str propagation);
        ] )
  | Security { secured; roles; auth } ->
      ( "security",
        [
          ("secured", names secured);
          ("roles", Transform.Params.V_list (List.map str roles));
          ("authentication", str auth);
        ] )
  | Logging { level } ->
      ("logging", [ ("targets", Transform.Params.V_list [ str "*" ]); ("level", str level) ])

(* A method the bench may call: everything the prediction needs. *)
type call = {
  cls : string;
  meth : string;
  args : Interp.Rvalue.t list;
  returns : Code.Jtype.t;
}

let calls_of_program program =
  List.concat_map
    (fun (c : Code.Jdecl.class_) ->
      List.map
        (fun (m : Code.Jdecl.method_) ->
          {
            cls = c.Code.Jdecl.class_name;
            meth = m.Code.Jdecl.method_name;
            args =
              List.map
                (fun (p : Code.Jdecl.param) ->
                  Interp.Rvalue.default_of p.Code.Jdecl.param_type)
                m.Code.Jdecl.params;
            returns = m.Code.Jdecl.return_type;
          })
        c.Code.Jdecl.methods)
    (Code.Junit.classes program)

type outcome = { events : string list; result : (Interp.Rvalue.t, string) result }

let outcome_of (o : Interp.Machine.outcome) =
  { events = List.map Interp.Event.to_string o.Interp.Machine.events; result = o.result }

let same a b =
  a.events = b.events
  &&
  match (a.result, b.result) with
  | Ok x, Ok y -> Interp.Rvalue.equal x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let expected steps ~faulted c =
  if faulted then
    {
      events = [ Printf.sprintf "FaultInjector.throw(%s.%s)" c.cls c.meth ];
      result = Error "RuntimeException";
    }
  else
    let jp = Printf.sprintf "execution(%s.%s)" c.cls c.meth in
    let returns_value = c.returns <> Code.Jtype.T_void in
    (* (before, after) per applicable step, outermost first *)
    let brackets =
      List.filter_map
        (function
          | Distribution { remote; protocol; registry } when List.mem c.cls remote ->
              Some
                ( [
                    Printf.sprintf "RemoteRuntime.ensureExported(%s, %s, %s)" c.cls
                      registry protocol;
                  ],
                  `None )
          | Transactions { transactional; isolation; propagation }
            when List.mem c.cls transactional ->
              Some
                ( [ Printf.sprintf "TransactionManager.begin(%s, %s)" isolation propagation ],
                  `Around "TransactionManager.commit()" )
          | Security { secured; roles; auth } when List.mem c.cls secured ->
              Some
                ( [
                    Printf.sprintf "SecurityContext.currentPrincipal(%s)" auth;
                    Printf.sprintf "AccessController.check(__singleton_Principal, %s, %s)"
                      jp (String.concat "," roles);
                  ],
                  `None )
          | Logging { level } ->
              Some
                ( [ Printf.sprintf "Logger.log(%s, enter %s)" level jp ],
                  `Returning (Printf.sprintf "Logger.log(%s, exit %s)" level jp) )
          | Distribution _ | Transactions _ | Security _ -> None)
        steps
    in
    (* Afters run innermost first. With a value-returning body the return
       escapes every around (its epilogue is skipped), and an after-returning
       advice woven outside an around was appended past that return. *)
    let afters, _ =
      List.fold_left
        (fun (acc, around_inside) (_, after) ->
          match after with
          | `None -> (acc, around_inside)
          | `Around e -> ((if returns_value then acc else e :: acc), true)
          | `Returning e ->
              ((if returns_value && around_inside then acc else e :: acc), around_inside))
        ([], false) (List.rev brackets)
    in
    {
      events = List.concat_map fst brackets @ List.rev afters;
      result = Ok (Interp.Rvalue.default_of c.returns);
    }

let to_string o =
  String.concat "\n"
    (o.events
    @ [
        (match o.result with
        | Ok v -> "-> returned " ^ Interp.Rvalue.to_string v
        | Error cls -> "-> threw " ^ cls);
      ])
