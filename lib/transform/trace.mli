(** Transformation traces — the paper's "concern spaces".

    Each applied concrete transformation contributes one entry recording the
    model elements it created or modified. Traces drive:
    - the colored demarcation of concern spaces (Section 3),
    - the precedence of generated aspects (Section 2: "the order in which
      specialized aspects will be applied at code level is dictated by
      the order in which the model transformations were applied"),
    - repository history. *)

type t
(** A trace: one entry per applied transformation, in application order,
    recording its sequence number, name, concern and diff. *)

val empty : t

val record : transformation:string -> concern:string -> Mof.Diff.t -> t -> t
(** Appends an entry with the next sequence number. When a telemetry sink
    is installed, also emits a structured [trace.record] event carrying the
    same data — the trace and the event stream are one path. *)

val diff_args : Mof.Diff.t -> (string * Obs.Event.value) list
(** The shared event-argument rendering of a diff (added/removed/modified
    counts), reused by {!Report} so every telemetry consumer sees the same
    shape. *)

val drop_last : t -> t
(** Removes the most recent entry (identity on the empty trace) — the trace
    side of the repository's Undo facility. *)

val concern_space : t -> concern:string -> Mof.Id.Set.t
(** All element ids created or modified by transformations of the given
    concern. *)

val concerns_applied : t -> string list
(** Concern keys in first-application order, without duplicates — this list
    is the aspect precedence order. *)

val introduced_by : t -> Mof.Id.t -> string option
(** The concern whose transformation *created* the element, if any; an
    element created by one concern and modified by another keeps its
    creator. *)
