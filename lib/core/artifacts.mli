(** Build artifacts: everything the implementation level of Fig. 1/Fig. 2
    produces — the functional code, the generated concrete aspects, and the
    woven program. *)

type t = {
  functional : Code.Junit.program;  (** code of the functional model only *)
  generated_aspects : Aspects.Generator.generated list;
      (** A_i⟨S_i⟩, in transformation order *)
  woven : Code.Junit.program;  (** functional code with aspects woven in *)
  applications : Weaver.Weave.application list;
      (** every advice application performed by the weaver *)
}

val precedence_listing : t -> string
(** The aspect precedence order, one line per aspect. *)

val interference : t -> Weaver.Interference.report
(** Which join points are advised, by whom, in effective precedence order —
    including those shared between concerns. *)

val summary : t -> string
(** Counts: units, classes, methods, aspects, advice applications. *)

val render_aspects : t -> string
(** All generated aspects as AspectJ-like source. *)

val write_to_dir : string -> t -> unit
(** Writes [functional.java], [aspects.aj], [woven.java], and
    [BUILD-REPORT.txt] into a directory (created if missing). *)
