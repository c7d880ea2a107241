(** Advice: what to do at matched join points.

    Around advice uses a [proceed()] call marker in its body — the weaver
    replaces the statement containing it with the original join-point code.
    Inside advice bodies, two pseudo-variables are available and rewritten
    at weave time: [thisJoinPoint] (a string describing the join point) and
    [targetName] (the current class name). *)

type time =
  | Before
  | After  (** after, regardless of outcome (woven as try/finally) *)
  | After_returning
  | Around

val time_to_string : time -> string

type t = {
  advice_name : string;
  time : time;
  pointcut : Pointcut.t;
  body : Code.Jstmt.t list;
}

val make : ?name:string -> time -> Pointcut.t -> Code.Jstmt.t list -> t
(** [make time pc body]; the name defaults to the rendered time+pointcut. *)

val proceed : Code.Jstmt.t
(** The [proceed();] marker statement for around advice. *)
