(** Developer guidance over a workflow in progress. *)

val describe : State.progress -> string
(** Multi-line status: completed steps, current options, remaining
    concerns. *)

(** One analysed aspect pair, as plain data: the workflow library doesn't
    depend on the weaver, so callers project Weaver.Interference pairs
    into this. [pair_conflict] carries the conflict reason when weave
    order matters, [None] when the pair provably commutes. *)
type interference_pair = {
  pair_left : string;
  pair_right : string;
  pair_conflict : string option;
}

val interference_brief : interference_pair list -> string
(** Render interference verdicts as workflow guidance: which concern
    orderings the workflow fixes are load-bearing, and which are free. *)
