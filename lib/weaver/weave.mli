(** The static weaver: applies concrete aspects to a program.

    Weaving proceeds per aspect in *reverse* precedence order, so that the
    highest-precedence aspect (the concern whose transformation was applied
    first) wraps all others at shared join points:
    - inter-type fields and methods are added to matching classes;
    - [before] execution advice is prepended to the method body;
    - [after] execution advice is woven as [try { body } finally { advice }];
    - [after returning] advice is inserted before the trailing [return] (or
      appended when the body does not end in a return);
    - [around] execution advice replaces the body by the advice body with
      the [proceed()] marker statement replaced by the original body;
    - [call] and [set] advice wraps the innermost statement containing a
      matching shadow with before/after statements.

    Advice bodies may use two pseudo-variables, rewritten at each woven
    shadow: [thisJoinPoint] becomes a string literal describing the join
    point and [targetName] the enclosing class name.

    {!weave} is an aspect-major fold of {!weave_one}: one traversal of the
    program per aspect, lowest precedence first. Each traversal stages
    every advice's pointcut decider ({!Matcher.matches}) once, then tests
    it at every shadow. A method's weave reads only its own class, so
    weaving is class-local; the [weave-local] oracle pins the fold against
    a class-by-class weave of the same program. *)

(** One advice application, for reports. *)
type application = {
  aspect_name : string;
  advice_name : string;
  at : string;  (** shadow description *)
}

type result = {
  program : Code.Junit.program;
  applications : application list;  (** weave order *)
}

val weave_one : Aspects.Aspect.t -> Code.Junit.program -> result
(** Weaves a single aspect into every class: its inter-type declarations
    first, then its advice. *)

val weave :
  Aspects.Generator.generated list -> Code.Junit.program -> result
(** Orders the generated aspects by precedence and folds {!weave_one}
    over them, lowest precedence first. The application report is
    aspect-major: aspect, then class, then method. *)
