(** The full-copy repository — the pre-content-addressing implementation,
    kept verbatim as the differential baseline for the [repo] oracle and
    the snapshot-size test in [test_repository.ml].

    Every commit embeds a complete model value and [diff_between]
    recomputes from the embedded models; nothing is shared through a
    store. Semantically it must agree with {!Repo} on the whole observable
    surface (head model, undo/redo, tags, log, diffs) — that agreement is
    exactly what the oracle checks, so this module should never be
    "improved" in ways that change behavior. *)

type commit = {
  id : int;
  parent : int option;
  message : string;
  model : Mof.Model.t;
  diff : Mof.Diff.t;
  transformation : string option;
  concern : string option;
}

type t

val init : Mof.Model.t -> t

val commit :
  ?transformation:string ->
  ?concern:string ->
  message:string ->
  Mof.Model.t ->
  t ->
  t

val head_model : t -> Mof.Model.t
val undo : t -> t option
val redo : t -> t option
val can_undo : t -> bool
val can_redo : t -> bool
val tag : string -> t -> t
val checkout : string -> t -> t option
val tags : t -> (string * int) list
val find : t -> int -> commit option
val log : t -> commit list
val size : t -> int
val diff_between : t -> from_id:int -> to_id:int -> Mof.Diff.t option

val estimated_bytes : t -> int
(** A flat re-serialization measure: total canonical bytes of every
    element of every commit's embedded model — what a snapshot with no
    sharing would cost. A snapshot of the same history stays under a
    tenth of it ([test_repository.ml]). *)
