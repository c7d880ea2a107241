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
    counter included. *)

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

val refine_one : steps:step list -> Mof.Model.t -> outcome
(** The sequential unit of work: start a project on the model and fold the
    chain, stopping at the first error. Exactly what each pool worker runs
    per item. *)

val refine_all :
  ?pool:Pool.t -> steps:step list -> Mof.Model.t list -> outcome list
(** [refine_all ~pool ~steps models] — one {!refine_one} per model on the
    pool ([None] = sequentially in the caller), outcomes in submission
    order. This is what [mdweave batch] runs and bench E14 times. Metric
    shards are merged at the join (see {!Pool}), so counter totals after
    the call are exact. *)

val refine_all_traced :
  ?pool:Pool.t ->
  steps:step list ->
  Mof.Model.t list ->
  (outcome * Obs.Event.t list) list
(** Like {!refine_all}, but each item additionally records its own event
    trace: the worker installs a private memory sink and restarts span
    numbering for the item, so the captured list is exactly the trace a
    sequential run of that item would record — modulo
    {!Obs.Event.normalize} (timestamps, durations, domain ids). The par
    oracle compares these per item between the parallel and sequential
    arms. *)
