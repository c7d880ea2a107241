(** Observable events emitted by the interpreter's middleware runtime.

    Every built-in runtime class (transaction manager, logger, lock manager,
    access controller, remote runtime) records what woven advice asks of it,
    so a test can assert the *behaviour* the paper's pipeline promises —
    e.g. that a transactional method emits [begin … commit], that an
    injected fault turns the tail into [rollback], and that the events of a
    higher-precedence concern bracket those of a lower one. *)

type t = {
  source : string;  (** runtime class, e.g. ["TransactionManager"] *)
  action : string;  (** e.g. ["begin"], ["commit"], ["log"] *)
  detail : string;  (** rendered arguments *)
}

val make : source:string -> action:string -> detail:string -> t

val to_string : t -> string
(** ["TransactionManager.begin(serializable, required)"]. *)
