exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Java-level control flow, carried by OCaml exceptions. *)
exception Java_throw of Rvalue.t * string (* value, class name *)
exception Java_return of Rvalue.t

(* A local variable or an object field. A method has a few locals and an
   object a few fields, so each lives in a short list of cells. *)
type cell = { name : string; mutable value : Rvalue.t }

let rec cell name = function
  | [] -> raise_notrace Not_found
  | c :: cells -> if String.equal c.name name then c else cell name cells

(* [cells] with [name] bound to [v]. An existing cell takes the value in
   place, so a local declared in a loop body keeps one cell. *)
let bind cells name v =
  match cell name cells with
  | c ->
      c.value <- v;
      cells
  | exception Not_found -> { name; value = v } :: cells

type obj = {
  obj_class : string;
  mutable fields : cell list;
}

type t = {
  program : Code.Junit.program;
  mutable heap : obj array; (* reference [r] is [heap.(r)] for [r < next_ref] *)
  mutable next_ref : int;
  mutable singletons : (string * Rvalue.t) list; (* builtin class, instance *)
  mutable log : Event.t list; (* reversed *)
  faults : (string * string) list;
}

type outcome = {
  result : (Rvalue.t, string) Stdlib.result;
  events : Event.t list;
}

let record st ~source ~action ~detail =
  st.log <- Event.make ~source ~action ~detail :: st.log

let events st = List.rev st.log

(* ---- classes and dispatch ---------------------------------------------- *)

(* A call resolves its receiver's class by name once; from that declaration
   method search and field collection walk [extends], looking up only the
   superclasses by name. *)

let find_class st name = Code.Junit.find_class st.program name

let super_of program (c : Code.Jdecl.class_) =
  match c.Code.Jdecl.extends with
  | Some super -> Code.Junit.find_class program super
  | None -> None

(* the method a call on [c] dispatches to, with its declaring class *)
let rec method_in program c method_name =
  match Code.Jdecl.find_method c method_name with
  | Some m -> Some (c, m)
  | None -> (
      match super_of program c with
      | Some super -> method_in program super method_name
      | None -> None)

let dispatch program class_name decl method_name =
  let found =
    match decl with Some c -> method_in program c method_name | None -> None
  in
  match found with
  | Some found -> found
  | None -> error "class %s has no method %s" class_name method_name

(* exception conformance: program extends chain, plus the builtin
   RuntimeException <: Exception <: Throwable and Error <: Throwable
   ladder *)
let rec conforms_to st sub super =
  String.equal sub super
  || (match (sub, super) with
     | "RuntimeException", ("Exception" | "Throwable") -> true
     | ("Exception" | "Error"), "Throwable" -> true
     | _ -> false)
  ||
  match find_class st sub with
  | Some { Code.Jdecl.extends = Some parent; _ } -> conforms_to st parent super
  | Some _ | None -> false

let heap_obj st r =
  if r >= 0 && r < st.next_ref then st.heap.(r)
  else error "dangling heap reference @%d" r

let class_of_value st = function
  | Rvalue.V_object r -> (heap_obj st r).obj_class
  | Rvalue.V_string _ -> "String"
  | Rvalue.V_null -> "null"
  | Rvalue.V_bool _ -> "boolean"
  | Rvalue.V_int _ -> "int"
  | Rvalue.V_double _ -> "double"

(* the heap's first capacity: a woven call allocates its receiver, the
   builtin singletons it asks for and perhaps one exception *)
let initial_heap = 8

let allocate st obj_class field_decls =
  let fields =
    List.fold_left
      (fun cells (f : Code.Jdecl.field) ->
        bind cells f.Code.Jdecl.field_name (Rvalue.default_of f.Code.Jdecl.field_type))
      [] field_decls
  in
  let r = st.next_ref in
  let o = { obj_class; fields } in
  if r < Array.length st.heap then st.heap.(r) <- o
  else begin
    (* the new object fills the grown array, so slot [r] already holds it *)
    let grown = Array.make (max initial_heap (2 * r)) o in
    Array.blit st.heap 0 grown 0 r;
    st.heap <- grown
  end;
  st.next_ref <- r + 1;
  Rvalue.V_object r

(* fields of a class including inherited ones, superclasses' first *)
let rec fields_of program c =
  (match super_of program c with
  | Some super -> fields_of program super
  | None -> [])
  @ c.Code.Jdecl.fields

(* The declaration [new class_name] instantiates: runtime exception classes
   can be instantiated without one. *)
let instantiable program class_name =
  match Code.Junit.find_class program class_name with
  | Some _ as decl -> decl
  | None -> (
      match class_name with
      | "RuntimeException" | "Exception" | "Throwable" | "Error" -> None
      | _ -> error "unknown class %s" class_name)

let instantiate st class_name decl =
  allocate st class_name
    (match decl with Some c -> fields_of st.program c | None -> [])

let new_object st class_name =
  instantiate st class_name (instantiable st.program class_name)

(* ---- builtin middleware runtime ------------------------------------------ *)

let is_builtin_receiver = function
  | "TransactionManager" | "Logger" | "LockManager" | "AccessController"
  | "SecurityContext" | "RemoteRuntime" | "NamingService" | "PersistenceManager"
  | "MessageQueue" ->
      true
  | _ -> false

let detail_of st args =
  String.concat ", "
    (List.map
       (fun v ->
         match v with
         | Rvalue.V_object _ -> class_of_value st v
         | v -> Rvalue.to_string v)
       args)

(* records [source].[action] with the call's arguments as its detail *)
let record_call st ~source ~action args =
  record st ~source ~action ~detail:(detail_of st args)

(* a singleton instance per builtin "manager" class, allocated on first use *)
let singleton st class_name =
  match List.assoc_opt class_name st.singletons with
  | Some v -> v
  | None ->
      let v = allocate st ("__singleton_" ^ class_name) [] in
      st.singletons <- (class_name, v) :: st.singletons;
      v

let builtin_static st class_name method_name args =
  match (class_name, method_name) with
  | "TransactionManager", "current" -> Some (singleton st "TransactionManager")
  | "Logger", "log" ->
      record_call st ~source:"Logger" ~action:"log" args;
      Some Rvalue.V_null
  | "LockManager", "of" -> Some (singleton st "LockManager")
  | "AccessController", "check" ->
      record_call st ~source:"AccessController" ~action:"check" args;
      Some (Rvalue.V_bool true)
  | "SecurityContext", "currentPrincipal" ->
      record_call st ~source:"SecurityContext" ~action:"currentPrincipal" args;
      Some (singleton st "Principal")
  | "RemoteRuntime", "ensureExported" ->
      record_call st ~source:"RemoteRuntime" ~action:"ensureExported" args;
      Some Rvalue.V_null
  | "NamingService", ("bind" | "lookup") ->
      record_call st ~source:"NamingService" ~action:method_name args;
      Some (Rvalue.V_string "naming:handle")
  | "PersistenceManager", ("markDirty" | "ensureLoaded" | "load" | "store" | "delete")
    ->
      record_call st ~source:"PersistenceManager" ~action:method_name args;
      Some Rvalue.V_null
  | "MessageQueue", ("publish" | "consume") ->
      record_call st ~source:"MessageQueue" ~action:method_name args;
      Some Rvalue.V_null
  | _, _ -> None

(* instance methods of builtin singletons *)
let builtin_instance st obj_class method_name args =
  match (obj_class, method_name) with
  | "__singleton_TransactionManager", ("begin" | "commit" | "rollback") ->
      record_call st ~source:"TransactionManager" ~action:method_name args;
      Some Rvalue.V_null
  | "__singleton_LockManager", ("acquire" | "release") ->
      record_call st ~source:"LockManager" ~action:method_name args;
      Some Rvalue.V_null
  | _, _ -> None

(* a fault named for [class_name].[method_name]; no call pays for the test
   when none is injected *)
let faulted st class_name method_name =
  match st.faults with
  | [] -> false
  | faults ->
      List.exists
        (fun (c, m) -> String.equal c class_name && String.equal m method_name)
        faults

(* ---- environments --------------------------------------------------------- *)

type env = {
  mutable vars : cell list;
  this : Rvalue.t;
}

let declare env name v = env.vars <- bind env.vars name v

(* ---- evaluation ------------------------------------------------------------ *)

let arith op a b =
  match (op, a, b) with
  | "+", Rvalue.V_string x, y -> Rvalue.V_string (x ^ Rvalue.to_string y)
  | "+", x, Rvalue.V_string y -> Rvalue.V_string (Rvalue.to_string x ^ y)
  | "+", Rvalue.V_int x, Rvalue.V_int y -> Rvalue.V_int (x + y)
  | "-", Rvalue.V_int x, Rvalue.V_int y -> Rvalue.V_int (x - y)
  | "*", Rvalue.V_int x, Rvalue.V_int y -> Rvalue.V_int (x * y)
  | "/", Rvalue.V_int x, Rvalue.V_int y ->
      if y = 0 then raise (Java_throw (Rvalue.V_null, "RuntimeException"))
      else Rvalue.V_int (x / y)
  | "+", Rvalue.V_double x, Rvalue.V_double y -> Rvalue.V_double (x +. y)
  | "-", Rvalue.V_double x, Rvalue.V_double y -> Rvalue.V_double (x -. y)
  | "*", Rvalue.V_double x, Rvalue.V_double y -> Rvalue.V_double (x *. y)
  | "/", Rvalue.V_double x, Rvalue.V_double y -> Rvalue.V_double (x /. y)
  | "+", Rvalue.V_int x, Rvalue.V_double y -> Rvalue.V_double (float_of_int x +. y)
  | "+", Rvalue.V_double x, Rvalue.V_int y -> Rvalue.V_double (x +. float_of_int y)
  | "-", Rvalue.V_int x, Rvalue.V_double y -> Rvalue.V_double (float_of_int x -. y)
  | "-", Rvalue.V_double x, Rvalue.V_int y -> Rvalue.V_double (x -. float_of_int y)
  | "*", Rvalue.V_int x, Rvalue.V_double y -> Rvalue.V_double (float_of_int x *. y)
  | "*", Rvalue.V_double x, Rvalue.V_int y -> Rvalue.V_double (x *. float_of_int y)
  | "/", Rvalue.V_int x, Rvalue.V_double y -> Rvalue.V_double (float_of_int x /. y)
  | "/", Rvalue.V_double x, Rvalue.V_int y -> Rvalue.V_double (x /. float_of_int y)
  | _ -> error "unsupported arithmetic %s on %s and %s" op (Rvalue.to_string a) (Rvalue.to_string b)

let compare_num op a b =
  let as_float = function
    | Rvalue.V_int n -> float_of_int n
    | Rvalue.V_double f -> f
    | v -> error "comparison %s on non-number %s" op (Rvalue.to_string v)
  in
  let x = as_float a and y = as_float b in
  Rvalue.V_bool
    (match op with
    | "<" -> x < y
    | ">" -> x > y
    | "<=" -> x <= y
    | ">=" -> x >= y
    | _ -> assert false)

let rec eval st env (e : Code.Jexpr.t) : Rvalue.t =
  match e with
  | Code.Jexpr.E_null -> Rvalue.V_null
  | Code.Jexpr.E_this -> env.this
  | Code.Jexpr.E_bool b -> Rvalue.V_bool b
  | Code.Jexpr.E_int n -> Rvalue.V_int n
  | Code.Jexpr.E_double f -> Rvalue.V_double f
  | Code.Jexpr.E_string s -> Rvalue.V_string s
  | Code.Jexpr.E_name n -> (
      match cell n env.vars with
      | c -> c.value
      | exception Not_found -> (
          (* unqualified field access on this *)
          match env.this with
          | Rvalue.V_object r -> (
              let o = heap_obj st r in
              match cell n o.fields with
              | c -> c.value
              | exception Not_found -> error "unknown variable or field %s" n)
          | _ -> error "unknown variable %s" n))
  | Code.Jexpr.E_field (recv, f) -> (
      match eval st env recv with
      | Rvalue.V_object r -> (
          let o = heap_obj st r in
          match cell f o.fields with
          | c -> c.value
          | exception Not_found -> error "class %s has no field %s" o.obj_class f)
      | Rvalue.V_null -> raise (Java_throw (Rvalue.V_null, "RuntimeException"))
      | v -> error "field access .%s on %s" f (Rvalue.to_string v))
  | Code.Jexpr.E_call (recv, name, args) -> eval_call st env recv name args
  | Code.Jexpr.E_new (cls, args) ->
      ignore (List.map (eval st env) args);
      new_object st cls
  | Code.Jexpr.E_binary (op, a, b) -> eval_binary st env op a b
  | Code.Jexpr.E_unary (op, a) -> (
      match (op, eval st env a) with
      | "!", Rvalue.V_bool b -> Rvalue.V_bool (not b)
      | "-", Rvalue.V_int n -> Rvalue.V_int (-n)
      | "-", Rvalue.V_double f -> Rvalue.V_double (-.f)
      | op, v -> error "unsupported unary %s on %s" op (Rvalue.to_string v))
  | Code.Jexpr.E_assign (lhs, rhs) -> (
      let v = eval st env rhs in
      match lhs with
      | Code.Jexpr.E_name n -> (
          match cell n env.vars with
          | c ->
              c.value <- v;
              v
          | exception Not_found -> (
              match env.this with
              | Rvalue.V_object r ->
                  let o = heap_obj st r in
                  o.fields <- bind o.fields n v;
                  v
              | _ -> error "assignment to unknown variable %s" n))
      | Code.Jexpr.E_field (recv, f) -> (
          match eval st env recv with
          | Rvalue.V_object r ->
              let o = heap_obj st r in
              o.fields <- bind o.fields f v;
              v
          | Rvalue.V_null -> raise (Java_throw (Rvalue.V_null, "RuntimeException"))
          | other -> error "assignment to field of %s" (Rvalue.to_string other))
      | _ -> error "unsupported assignment target")
  | Code.Jexpr.E_cast (_, a) -> eval st env a
  | Code.Jexpr.E_instanceof (a, cls) -> (
      match eval st env a with
      | Rvalue.V_object r ->
          Rvalue.V_bool (conforms_to st (heap_obj st r).obj_class cls)
      | Rvalue.V_null -> Rvalue.V_bool false
      | _ -> Rvalue.V_bool false)

and eval_binary st env op a b =
  match op with
  | "&&" ->
      if Rvalue.truthy (eval st env a) then eval st env b else Rvalue.V_bool false
  | "||" ->
      if Rvalue.truthy (eval st env a) then Rvalue.V_bool true else eval st env b
  | "==" -> Rvalue.V_bool (Rvalue.equal (eval st env a) (eval st env b))
  | "!=" -> Rvalue.V_bool (not (Rvalue.equal (eval st env a) (eval st env b)))
  | "<" | ">" | "<=" | ">=" -> compare_num op (eval st env a) (eval st env b)
  | "+" | "-" | "*" | "/" -> arith op (eval st env a) (eval st env b)
  | op -> error "unsupported operator %s" op

and eval_call st env recv name args =
  match recv with
  | Some (Code.Jexpr.E_name cls) when is_builtin_receiver cls -> (
      let arg_values = List.map (eval st env) args in
      match builtin_static st cls name arg_values with
      | Some v -> v
      | None -> error "builtin %s has no method %s" cls name)
  | Some recv_expr -> (
      let recv_value = eval st env recv_expr in
      let arg_values = List.map (eval st env) args in
      match recv_value with
      | Rvalue.V_object r -> (
          let o = heap_obj st r in
          match builtin_instance st o.obj_class name arg_values with
          | Some v -> v
          | None -> invoke st recv_value o.obj_class name arg_values)
      | Rvalue.V_null -> raise (Java_throw (Rvalue.V_null, "RuntimeException"))
      | v -> error "method call .%s on %s" name (Rvalue.to_string v))
  | None -> (
      (* unqualified: a method on this *)
      let arg_values = List.map (eval st env) args in
      match env.this with
      | Rvalue.V_object r ->
          invoke st env.this (heap_obj st r).obj_class name arg_values
      | _ -> error "unqualified call %s with no this" name)

and invoke st this class_name method_name arg_values =
  invoke_in st this class_name (find_class st class_name) method_name arg_values

(* [invoke] on the already resolved declaration [decl] of [class_name] *)
and invoke_in st this class_name decl method_name arg_values =
  let owner, m = dispatch st.program class_name decl method_name in
  if faulted st owner.Code.Jdecl.class_name method_name then begin
    record st ~source:"FaultInjector" ~action:"throw"
      ~detail:(owner.Code.Jdecl.class_name ^ "." ^ method_name);
    raise (Java_throw (new_object st "RuntimeException", "RuntimeException"))
  end;
  match m.Code.Jdecl.body with
  | None -> Rvalue.default_of m.Code.Jdecl.return_type
  | Some body -> (
      let env = { vars = []; this } in
      (try
         List.iter2
           (fun (p : Code.Jdecl.param) v -> declare env p.Code.Jdecl.param_name v)
           m.Code.Jdecl.params arg_values
       with Invalid_argument _ ->
         error "arity mismatch calling %s.%s" class_name method_name);
      try
        exec_block st env body;
        Rvalue.default_of m.Code.Jdecl.return_type
      with Java_return v -> v)

and exec_block st env stmts = List.iter (exec st env) stmts

and exec st env (stmt : Code.Jstmt.t) =
  match stmt with
  | Code.Jstmt.S_expr e -> ignore (eval st env e)
  | Code.Jstmt.S_local (_, name, init) ->
      let v =
        match init with Some e -> eval st env e | None -> Rvalue.V_null
      in
      declare env name v
  | Code.Jstmt.S_return None -> raise (Java_return Rvalue.V_null)
  | Code.Jstmt.S_return (Some e) -> raise (Java_return (eval st env e))
  | Code.Jstmt.S_if (cond, then_, else_) ->
      if Rvalue.truthy (eval st env cond) then exec_block st env then_
      else exec_block st env else_
  | Code.Jstmt.S_while (cond, body) ->
      while Rvalue.truthy (eval st env cond) do
        exec_block st env body
      done
  | Code.Jstmt.S_throw e -> (
      match eval st env e with
      | Rvalue.V_object r as v -> raise (Java_throw (v, (heap_obj st r).obj_class))
      | v -> raise (Java_throw (v, "RuntimeException")))
  | Code.Jstmt.S_try (body, catches, finally) -> (
      let run_finally () = exec_block st env finally in
      match exec_block st env body with
      | () -> run_finally ()
      | exception Java_throw (v, cls) -> (
          let handler =
            List.find_opt
              (fun (t, _, _) ->
                match t with
                | Code.Jtype.T_named catch_cls -> conforms_to st cls catch_cls
                | _ -> false)
              catches
          in
          match handler with
          | Some (_, var, handler_body) -> (
              declare env var v;
              match exec_block st env handler_body with
              | () -> run_finally ()
              | exception e ->
                  run_finally ();
                  raise e)
          | None ->
              run_finally ();
              raise (Java_throw (v, cls)))
      | exception e ->
          (* Java_return or an interpreter error: finally still runs *)
          run_finally ();
          raise e)
  | Code.Jstmt.S_sync (lock, body) ->
      let v = eval st env lock in
      record st ~source:"Monitor" ~action:"enter" ~detail:(class_of_value st v);
      Fun.protect
        ~finally:(fun () ->
          record st ~source:"Monitor" ~action:"exit" ~detail:(class_of_value st v))
        (fun () -> exec_block st env body)
  | Code.Jstmt.S_comment _ -> ()
  | Code.Jstmt.S_block stmts -> exec_block st env stmts

(* ---- public API ------------------------------------------------------------- *)

let create ?(faults = []) program =
  { program; heap = [||]; next_ref = 0; singletons = []; log = []; faults }

let run ?(faults = []) ?(args = []) program ~class_name ~method_name =
  let st = create ~faults program in
  let decl = instantiable program class_name in
  let this = instantiate st class_name decl in
  let result =
    match invoke_in st this class_name decl method_name args with
    | v -> Ok v
    | exception Java_throw (_, cls) -> Error cls
  in
  { result; events = events st }

let method_params program ~class_name ~method_name =
  let decl = instantiable program class_name in
  (snd (dispatch program class_name decl method_name)).Code.Jdecl.params
