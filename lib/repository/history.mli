(** Rendering of repository histories. *)

val render : Repo.t -> string
(** The head-first log, one commit summary per line, head marked with
    [*] and tags shown inline. *)
