(** A fixed-size pool of worker domains with a chunked work queue and a
    deterministic-merge contract.

    A pool of size [j] owns [j - 1] long-lived worker domains; the domain
    that submits a job participates as the [j]-th worker, so [jobs:1] is
    plain sequential execution with no domain ever spawned. Workers sleep
    on a condition variable between jobs — a pool is cheap to keep around
    and is meant to be reused across batches.

    {2 The merge contract}

    [map pool f items] applies [f] to every item concurrently. Items are
    claimed from an atomic cursor (chunk size 1 — items are coarse), each
    result is written into the slot of {e its own submission index}, and
    the caller returns the slots in submission order. Completion order —
    which worker ran which item, and when — is unobservable in the result:
    the merge is deterministic by construction, not by scheduling.

    Failures keep the same per-item discipline. An exception raised by
    [f item] is caught on the worker, stored in the item's slot, and
    re-raised {e in the submitting domain} for the lowest failing index
    after every other item has run to completion — one failing item never
    poisons the others, and which exception surfaces does not depend on
    timing. Callers who want errors as data should make [f] return a
    [result] (see {!Batch}).

    {2 Per-domain observability state}

    Worker domains start on the null {!Obs} sink and their own empty
    metric shard ({!Obs.Metric}); the domain-local OCL parse cache
    ([Ocl.Compile]) warms per worker. At the end of every [map], each
    participating worker drains its metric shard and the submitting domain
    absorbs them before returning — counter totals observed after a [map]
    are exact, as if the batch had run sequentially. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] builds a pool of total size [jobs] (clamped to at
    least 1), spawning [jobs - 1] worker domains. Default:
    [Domain.recommended_domain_count ()]. *)

val jobs : t -> int
(** Total parallelism, submitting caller included. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f items] — results in submission order (see above). Only one
    [map] may be in flight per pool; raises [Invalid_argument] on
    concurrent submission and on a pool that has been {!shutdown}. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

val shutdown : t -> unit
(** Joins all worker domains. Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
