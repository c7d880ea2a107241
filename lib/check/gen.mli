(** Random case generators for the fuzz harness.

    All generators draw exclusively from a {!Prng.t}, so a case is fully
    determined by its seed. Strings come from pools that deliberately
    include dotted names, non-ASCII UTF-8 (accents, CJK, an emoji),
    XML-hostile characters ([&], [<], quotes) and embedded whitespace —
    the inputs the XMI layer and the name indexes historically got wrong. *)

val base_script : Prng.t -> Edit.script
(** A constructive script that, applied to a fresh model, yields a
    well-formed base: unique (suffix-numbered) names, generalizations only
    from later to earlier classes, abstract operations only on interfaces
    or abstract classes. Any sublist of a base script still yields a
    well-formed model, which is what makes greedy script shrinking sound
    for the oracles that require a clean base. *)

val edit_script : Prng.t -> base:Edit.script -> Edit.script
(** An arbitrary edit script over the slots of [base] (plus its own
    creations): constructive ops mixed with deletions, renames to
    colliding/empty/dotted names, cyclic generalizations, duplicate
    enumeration literals — edits that may break well-formedness, which is
    exactly what the scoped-WF and diff oracles must track faithfully. *)

(** A weaving case: a small program plus concrete aspects with pairwise
    distinct sequence numbers (the paper's transformation order). *)
type weave_case = {
  program : Code.Junit.program;
  aspects : Aspects.Generator.generated list;
}

val weave_case : Prng.t -> weave_case

val pp_weave_case : Format.formatter -> weave_case -> unit

val random_pointcut : Prng.t -> Aspects.Pointcut.t
(** One random pointcut over the generator's pattern vocabulary: every
    leaf kind, [And]/[Or] combinations, and [Not] over each leaf. Drives
    the [matcher] oracle. *)

val program_edit : Prng.t -> Code.Junit.program -> Code.Junit.program
(** One random structural edit: replace a method body, add/remove a
    method, add a field, add/remove/rename a class. Declarations the edit
    does not touch are returned physically unchanged, and degenerate draws
    fall back to the identity. Drives the [weave-local] oracle. *)

val armor : Prng.t -> Xmi.Xml.t -> string
(** Renders an XML tree with a random subset of the characters in text and
    attribute values written as numeric character references
    ([&#233;]/[&#xE9;]), the rest escaped conventionally. Parsing the
    armored rendering must yield the same tree as parsing the plain
    rendering — the metamorphic relation that catches character-reference
    decoding bugs. *)

val ocl_constraints :
  Prng.t ->
  base:Edit.script ->
  edits:Edit.script ->
  (string * Ocl.Value.t) list * Ocl.Constraint_.t list
(** Random OCL constraints for the [ocl] differential oracle, with the
    parameter bindings to check them under: planner shapes (both equality
    orientations, probes under outer iterators and contexts, parameter
    right-hand sides and guards), shapes the planner must refuse (shadowed
    classifiers, iterator-dependent right-hand sides), plain extent walks,
    and ill-formed bodies. Probe targets are drawn from the names the
    scripts mention plus a never-existing one; parameter strings also
    carry quotes, [|], spaces and non-ASCII text. *)
