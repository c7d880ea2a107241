(** Batch refinement: apply one concern chain to N independent models
    concurrently, with results in submission order and per-item typed
    errors.

    This is the Fig. 2 pipeline turned into a throughput workload: every
    item is an independent model, the chain of refinement steps is shared,
    and the whole batch runs on a {!Pool}. The merge contract is the
    pool's: the outcome list lines up index-by-index with the input list
    no matter which domain ran which item, and one failing item yields one
    [Error] in its own slot — the other items are unaffected.

    No cache is kept per domain, so nothing an item computes can leak
    into an unrelated item that happens to run on the same worker later —
    the [par] differential oracle and [test_par.ml] hold the parallel run
    to exact observational equality with the sequential one, every
    counter included. Item [i] runs as session [i], so a trace of the
    batch splits into items by session: the [par] oracle compares each
    item's events, as the pool captured and replayed them, with the
    sequential run's. *)

type step = {
  concern : string;
  params : (string * Transform.Params.value) list;
}
(** One refinement step of the shared chain, as {!Core.Pipeline.refine}
    takes it. *)

val step :
  concern:string -> params:(string * Transform.Params.value) list -> step

type outcome = (Core.Project.t, Core.Pipeline.error) result
(** Per-item result: the refined project, or the typed pipeline error of
    the step that refused. *)

val refine_all :
  ?pool:Pool.t -> steps:step list -> Mof.Model.t list -> outcome list
(** [refine_all ~pool ~steps models] — one refinement per model on the
    pool ([None] = sequentially in the caller), outcomes in submission
    order. This is what [mdweave batch] runs and bench E14 times. Metric
    shards, and when the caller traces each item's events, are merged at
    the join (see {!Pool}), so counter totals after the call are exact and
    a trace holds every item. *)
