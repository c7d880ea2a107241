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

let rec map_expr f stmt =
  let body = List.map (map_expr f) in
  match stmt with
  | S_expr e -> S_expr (f e)
  | S_local (t, name, init) -> S_local (t, name, Option.map f init)
  | S_return e -> S_return (Option.map f e)
  | S_if (cond, then_, else_) -> S_if (f cond, body then_, body else_)
  | S_while (cond, loop) -> S_while (f cond, body loop)
  | S_throw e -> S_throw (f e)
  | S_try (block, catches, finally) ->
      S_try
        ( body block,
          List.map (fun (t, name, stmts) -> (t, name, body stmts)) catches,
          body finally )
  | S_sync (e, block) -> S_sync (f e, body block)
  | S_comment _ -> stmt
  | S_block stmts -> S_block (body stmts)

let rec fold_expr f acc stmt =
  let fold_body acc stmts = List.fold_left (fold_expr f) acc stmts in
  match stmt with
  | S_expr e -> f acc e
  | S_local (_, _, init) -> Option.fold ~none:acc ~some:(f acc) init
  | S_return e -> Option.fold ~none:acc ~some:(f acc) e
  | S_if (cond, then_, else_) -> fold_body (fold_body (f acc cond) then_) else_
  | S_while (cond, loop) -> fold_body (f acc cond) loop
  | S_throw e -> f acc e
  | S_try (block, catches, finally) ->
      let acc = fold_body acc block in
      let acc =
        List.fold_left (fun acc (_, _, stmts) -> fold_body acc stmts) acc catches
      in
      fold_body acc finally
  | S_sync (e, block) -> fold_body (f acc e) block
  | S_comment _ -> acc
  | S_block stmts -> fold_body acc stmts
