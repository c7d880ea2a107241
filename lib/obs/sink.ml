(* Pluggable event consumers.

   [Null] is the default and is matched *before* any event is constructed
   (see obs.ml), so uninstrumented runs pay one pattern match per call
   site. [Emit] is a plain closure; [memory] is the one buffering consumer:
   every trace file is rendered from it ({!Obs.with_outputs}), and a pool
   records each item of a traced map into one (see Par.Pool). *)

type t = Null | Emit of (Event.t -> unit)

let is_null = function Null -> true | Emit _ -> false
let emit t e = match t with Null -> () | Emit f -> f e

(* In-memory sink; the second component replays what was recorded. *)
let memory () =
  let acc = ref [] in
  (Emit (fun e -> acc := e :: !acc), fun () -> List.rev !acc)
