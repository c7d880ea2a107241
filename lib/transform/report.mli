(** Application reports: what one refinement step did, for tool output and
    the repository log. *)

type t = {
  transformation : string;  (** concrete name, T_i⟨…⟩ *)
  concern : string;
  parameters : (string * string) list;  (** name, rendered value *)
  diff : Mof.Diff.t;  (** what the application did, kept structurally *)
}

val make : Cmt.t -> Mof.Diff.t -> t
(** Builds the report and, when a telemetry sink is installed, emits a
    structured [report.make] event with the same counts. *)

val summary : t -> string
(** One line: ["T.distribution<...> [distribution] +12 -0 ~3"]. *)
