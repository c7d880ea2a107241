(** Critical-pair static aspect-interference analysis.

    The paper resolves multi-aspect composition by fixing precedence from
    the transformation order — but a developer still wants to know where
    that resolution *matters*. This analysis answers two questions:

    - {e where do aspects meet}: every join point (all three shadow kinds
      — execution, call, field-set) with the advice that applies to it, in
      effective precedence order, shared-across-concerns ones flagged;
    - {e does order matter}: for every aspect pair, whether their weaves
      commute. A pair is {e conflicting} when a critical overlap exists —
      advice from both at one shadow whose effects do not commute,
      statement wrapping colliding in one method, shadows introduced by
      one aspect's woven bodies or inter-type members that the other's
      pointcuts may match, or named-type declarations that can shift
      receiver resolution under the other's statement advice. All rules
      are conservative (may-analysis): {e independent} is the strong
      claim, and the fuzz harness verifies that independent pairs really
      commute under {!Weave.weave_one}. *)

(** How advice changes code at a join point. *)
type effect_kind =
  | Wrap  (** [after] (try/finally) and [around]: encloses the original *)
  | Insert_before  (** [before]: prepends, original unchanged *)
  | Insert_after  (** [after returning]: appends before the trailing return *)
  | Field_touch  (** statement advice at a field-set shadow *)

(** Advice applying at one join point. *)
type advising = {
  aspect_name : string;
  concern : string;
  advice_name : string;
  time : Aspects.Advice.time;
  precedence : int;  (** sequence number of the source transformation *)
  effect : effect_kind;
}

type entry = {
  at : Joinpoint.shadow;
  advisers : advising list;  (** highest precedence first *)
  shared : bool;  (** advised by more than one concern *)
}

type verdict =
  | Independent  (** weave order provably unobservable *)
  | Conflicting of {
      witness : Joinpoint.shadow option;
          (** a shadow exhibiting the overlap, when one exists ([None] for
              declaration-shape conflicts such as overlapping inter-type
              patterns) *)
      reason : string;
    }

(** One unordered aspect pair; [left] has the higher precedence. *)
type pair = {
  left : string;
  right : string;
  verdict : verdict;
}

type report = {
  entries : entry list;  (** only advised join points, program order *)
  shared : entry list;  (** the subset advised by more than one concern *)
  pairs : pair list;  (** every aspect pair, precedence-major order *)
}

val analyze :
  Aspects.Generator.generated list -> Code.Junit.program -> report
(** Resolves every generated aspect's advice against every shadow of the
    program, gated by {!Matcher.kinds} exactly as the weaver applies it
    (so inert pure-[within] advice is not reported), and runs the
    critical-pair rules over every aspect pair. *)

val render : report -> string
(** Human-readable listing; shared join points and conflicting pairs are
    marked with [!]. *)
