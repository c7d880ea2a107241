(** The concurrency concern.

    Model level: introduce one «infrastructure» [LockManager] class and mark
    each configured class «synchronized» with the locking policy as a tagged
    value.

    Code level: per configured class, an around-execution advice —
    under the ["mutex"] policy the original body runs inside
    [synchronized (LockManager.of(this))]; under ["reader-writer"] it runs
    between [acquire]/[release] calls in a try/finally.

    Parameters:
    - [guarded] : list of class names (required)
    - [policy] : ["mutex" | "reader-writer"], default ["mutex"] *)

val concern : Concern.t
val transformation : Transform.Gmt.t
val generic_aspect : Aspects.Generic.t
