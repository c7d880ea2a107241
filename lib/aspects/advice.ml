type time =
  | Before
  | After
  | After_returning
  | Around

let time_to_string = function
  | Before -> "before"
  | After -> "after"
  | After_returning -> "after returning"
  | Around -> "around"

type t = {
  advice_name : string;
  time : time;
  pointcut : Pointcut.t;
  body : Code.Jstmt.t list;
}

let make ?name time pointcut body =
  let advice_name =
    match name with
    | Some n -> n
    | None -> time_to_string time ^ ": " ^ Pointcut.to_string pointcut
  in
  { advice_name; time; pointcut; body }

let proceed = Code.Jstmt.S_expr (Code.Jexpr.E_call (None, "proceed", []))
