(** The functional code generator.

    This implements the paper's proposal to generate code for the *pure
    functional model* only, leaving every cross-cutting concern to aspect
    generators plus weaving: classes become Java-like classes with private
    fields, accessors, and operation stubs; interfaces map directly;
    generalizations and realizations become [extends]/[implements];
    navigable association ends become fields on the opposite participant.

    Elements the concern transformations introduced (anything carrying a
    concern stereotype listed in [exclude_stereotypes]) can be skipped so
    that the generator's input is exactly the functional slice — this is
    what the [ablation/monolithic] experiment toggles. *)

type options = {
  accessors : bool;  (** generate getters/setters for attributes *)
  exclude_stereotypes : string list;
      (** classifiers carrying any of these stereotypes are not generated *)
}

val generate : ?options:options -> Mof.Model.t -> Junit.program
(** One compilation unit per package that owns at least one classifier; the
    package name is the package's qualified name (root package omitted, as
    in {!Mof.Query.qualified_name}). *)
