(** The transactions concern (the paper's C2).

    Model level: introduce one «infrastructure» [TransactionManager] class
    (begin/commit/rollback), mark each configured class «transactional» with
    isolation/propagation tagged values, and attach an OCL constraint
    documenting the transactional invariant.

    Code level: an around-execution advice per configured class that
    begins a transaction with the configured isolation and propagation,
    commits on normal completion, and rolls back on exception — the exact
    shape [8] argues cannot be a *generic* aspect without application
    knowledge; here the knowledge arrives through the shared parameter set.

    Parameters (P_2k):
    - [transactional] : list of class names (required)
    - [isolation] : ["read-committed" | "repeatable-read" | "serializable"],
      default ["serializable"]
    - [propagation] : ["required" | "requires-new" | "supports"], default
      ["required"] *)

val concern : Concern.t
val transformation : Transform.Gmt.t
val generic_aspect : Aspects.Generic.t
