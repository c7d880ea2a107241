type t =
  | S_expr of Jexpr.t
  | S_local of Jtype.t * string * Jexpr.t option
  | S_return of Jexpr.t option
  | S_if of Jexpr.t * t list * t list
  | S_while of Jexpr.t * t list
  | S_throw of Jexpr.t
  | S_try of t list * (Jtype.t * string * t list) list * t list
  | S_sync of Jexpr.t * t list
  | S_comment of string
  | S_block of t list

let map_bodies f stmt =
  match stmt with
  | S_expr _ | S_local _ | S_return _ | S_throw _ | S_comment _ -> stmt
  | S_if (cond, then_, else_) -> S_if (cond, f then_, f else_)
  | S_while (cond, loop) -> S_while (cond, f loop)
  | S_try (block, catches, finally) ->
      S_try
        (f block, List.map (fun (t, name, stmts) -> (t, name, f stmts)) catches, f finally)
  | S_sync (e, block) -> S_sync (e, f block)
  | S_block stmts -> S_block (f stmts)

let rec fold f acc stmt =
  let acc = f acc stmt in
  match stmt with
  | S_expr _ | S_local _ | S_return _ | S_throw _ | S_comment _ -> acc
  | S_if (_, then_, else_) -> fold_body f (fold_body f acc then_) else_
  | S_while (_, body) | S_sync (_, body) | S_block body -> fold_body f acc body
  | S_try (block, catches, finally) ->
      let acc = fold_body f acc block in
      let acc =
        List.fold_left (fun acc (_, _, stmts) -> fold_body f acc stmts) acc catches
      in
      fold_body f acc finally

and fold_body f acc stmts = List.fold_left (fold f) acc stmts

let direct_expr = function
  | S_expr e | S_if (e, _, _) | S_while (e, _) | S_throw e | S_sync (e, _) -> Some e
  | S_local (_, _, e) | S_return e -> e
  | S_try _ | S_comment _ | S_block _ -> None

(* The [fun] costs a statement without bodies one small closure, where the
   partial applications of [List.map (map_expr f)] would cost two. *)
let rec map_expr f stmt =
  match map_bodies (fun stmts -> List.map (map_expr f) stmts) stmt with
  | S_expr e -> S_expr (f e)
  | S_local (t, name, init) -> S_local (t, name, Option.map f init)
  | S_return e -> S_return (Option.map f e)
  | S_if (cond, then_, else_) -> S_if (f cond, then_, else_)
  | S_while (cond, loop) -> S_while (f cond, loop)
  | S_throw e -> S_throw (f e)
  | S_sync (e, block) -> S_sync (f e, block)
  | (S_try _ | S_comment _ | S_block _) as stmt -> stmt

let fold_expr f acc stmt =
  fold (fun acc s -> match direct_expr s with Some e -> f acc e | None -> acc) acc stmt
