(** Transformation traces — the paper's "concern spaces", and the one
    record of a refinement's steps.

    Each applied concrete transformation contributes one entry: the
    transformation itself and what it did to the model. Traces drive:
    - the colored demarcation of concern spaces (Section 3),
    - the precedence of generated aspects (Section 2: "the order in which
      specialized aspects will be applied at code level is dictated by
      the order in which the model transformations were applied"),
    - the shipped manifest of a refinement and workflow progress. *)

type entry = {
  cmt : Cmt.t;  (** the applied transformation, concern and parameters *)
  diff : Mof.Diff.t;  (** what the application did, kept structurally *)
}

type t = private entry list
(** One entry per applied transformation, in application order; an
    entry's sequence number is its 1-based position. *)

val empty : t

val record : entry -> t -> t
(** Appends an entry. Its event is {!Engine.apply}'s [report.make], which
    carries the same transformation, concern and diff counts. *)

val drop_last : t -> t
(** Removes the most recent entry (identity on the empty trace) — the trace
    side of the repository's Undo facility. *)

val applied : t -> Cmt.t list
(** The entries' transformations, in application order. *)

val summary : entry -> string
(** One line: ["T.distribution<...> [distribution] +12 -0 ~3"]. *)

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
