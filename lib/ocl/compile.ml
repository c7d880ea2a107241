(* The compiled-constraint cache: body string -> parsed + planned AST.

   Constraint bodies are tiny but checked constantly — the engine
   re-evaluates the same pre/postcondition strings on every step — so the
   parse and the planner rewrite are done once per distinct body and
   memoized. The cache is domain-local (Domain.DLS): the check driver runs
   oracles on parallel domains and a shared table would race; per-domain
   tables cost one cold parse per domain instead.

   Parse failures are cached too (as the raising exception), so an
   ill-formed body does not defeat the cache, and callers observe the
   exact exception an uncached parse would have raised. *)

type t = {
  src : string;
  ast : Ast.t;
  planned : Ast.t;
  probes : int;
}

let capacity = 1024

let table_key : (string, (t, exn) result) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let compile_uncached src =
  match Parser.parse src with
  | ast ->
      let planned, probes = Plan.optimize_count ast in
      Ok { src; ast; planned; probes }
  | exception ((Parser.Parse_error _ | Lexer.Lexical_error _) as e) -> Error e

let compile_exn src =
  let table = Domain.DLS.get table_key in
  match Hashtbl.find_opt table src with
  | Some r -> (
      Obs.incr "ocl.parse.hit" [];
      match r with Ok c -> c | Error e -> raise e)
  | None -> (
      Obs.incr "ocl.parse.miss" [];
      let r = compile_uncached src in
      (* bodies are a small working set in practice; on pathological
         churn, dropping the whole table keeps the memory bound without
         an eviction order to maintain *)
      if Hashtbl.length table >= capacity then Hashtbl.reset table;
      Hashtbl.add table src r;
      match r with Ok c -> c | Error e -> raise e)

(* Same message format as [Parser.parse_opt], so switching a caller from
   parse_opt to the cache changes no diagnostics. *)
let compile src =
  match compile_exn src with
  | c -> Ok c
  | exception Parser.Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at offset %d: %s" pos msg)
  | exception Lexer.Lexical_error (msg, pos) ->
      Error (Printf.sprintf "lexical error at offset %d: %s" pos msg)
