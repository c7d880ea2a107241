(** The metamorphic/differential oracle suite.

    Each oracle states a relation between two computations of the same fact
    — an incremental path against its full-scan baseline, or a pipeline
    against its algebraic decomposition — so no oracle needs to know the
    "right answer", only that the two paths must agree:

    - [diff]: journal-replay {!Mof.Diff.compute} ≡ {!Mof.Diff.compute_scan};
    - [wf]: scoped {!Mof.Wellformed.check_touched} ≡ full check on models
      edited from a clean base;
    - [xmi]: export → import → export is a fixpoint (byte-identical second
      export), reimport is {!Mof.Model.equal}, and parsing a
      character-reference-armored rendering equals parsing the plain one;
    - [query]: every secondary index, {!Ocl.Meta.all_instances} extent, and
      {!Mof.Query.find_by_qualified_name} lookup ≡ a fresh full scan;
    - [ocl]: {!Ocl.Constraint_.check} — memoized parse, planner probes —
      ≡ {!Ocl.Constraint_.check_naive} (fresh parse, raw AST, extent
      folds) on random constraints over the base and the edited model;
    - [weave]: {!Weaver.Weave.weave} is invariant under aspect-list
      shuffling; additionally every aspect pair the interference analysis
      ({!Weaver.Interference.analyze}) reports [Independent] must commute
      under {!Weaver.Weave.weave_one} — the one direction in which the
      conservative analysis makes a strong claim;
    - [weave-local]: {!Weaver.Weave.weave} ≡ weaving each class alone
      through the whole aspect chain, with the applications regrouped
      aspect-major — on the case program and after each of 1–3 random
      structural edits ({!Gen.program_edit}). Same woven program {e and}
      same application report, so no class's weave may read another
      class;
    - [par]: a batch of refinements pushed through a {!Par.Pool} of 2 and 3
      domains ≡ the same batch applied sequentially in the submitting
      domain — per-item outcomes ({!Mof.Model.equal} on success, rendered
      {!Core.Pipeline.error} on failure), per-item traces after
      {!Obs.Event.normalize}, and merged counter totals (minus per-domain
      cache hit/miss splits, which are scheduling accidents) must all
      agree, with pools cached across cases so leaked domain-local state
      would be caught;
    - [repo]: the content-addressed {!Repository.Repo} ≡ the full-copy
      {!Repository.Naive} baseline over random commit/undo/redo/tag/
      checkout scripts — head model, sizes, undo/redo availability, tags,
      and log must agree at every step; for every pair of the script's
      commits, composed {!Repository.Repo.diff_between} must equal both its
      scan form and the naive recompute; every commit's
      {!Repository.Repo.model_at} must equal the naive embedded model and
      answer every index lookup like a model rebuilt from its elements; the
      binary snapshot must round-trip as a byte fixpoint, identical commits must
      not grow the object store, and concurrent sessions through a cached
      pool must linearize per branch;
    - [matcher]: every staged decider {!Weaver.Matcher.matches} ≡ the
      pointcut AST walk {!Weaver.Matcher.matches_tree}, over every shadow
      of the case program × its advice pointcuts plus four random ones.

    Failure messages begin with a bracketed tag ([[diff]], [[wf]], [[xmi]],
    [[query]], [[ocl]], [[weave]], [[weave-local]], [[par]], [[repo]],
    [[matcher]], [[gen]]); the shrinker only accepts candidates failing with the
    original tag. *)

type check =
  | Model_check of
      (aux:int64 -> base:Edit.script -> edits:Edit.script -> (unit, string) result)
      (** [aux] seeds any auxiliary randomness the relation needs (e.g.
          armoring choices), so replays during shrinking are deterministic. *)
  | Weave_check of (aux:int64 -> Gen.weave_case -> (unit, string) result)

type t = { name : string; check : check }

val all : t list
(** The ten oracles, in documentation order. *)

val find : string -> t option

val tag_of : string -> string
(** The leading [[tag]] of a failure message (the whole message when it has
    none). *)
