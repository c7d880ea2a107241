(** The fuzz driver: generate, check, shrink, report.

    Case [i] of a run with seed [s] is generated from
    [Prng.mix (Prng.mix s (hash of the oracle name)) i], so any failure is
    replayable from [(oracle, seed, index)] alone — the triple every report
    carries. Auxiliary randomness inside a check (armoring choices, shuffle
    orders) comes from a further derived constant, so re-running a case
    during shrinking is deterministic. *)

type failure = {
  oracle : string;
  seed : int64;  (** the run seed, as given *)
  case : int;  (** index of the failing case within the run *)
  message : string;  (** tagged failure message from the oracle *)
  repro : string;  (** shrunk reproducer, pretty-printed *)
  shrunk_ops : int;  (** size of the shrunk reproducer, in ops *)
}

type stats = {
  cases : int;  (** cases executed (including the failing one, if any) *)
  elapsed : float;  (** seconds of wall-clock time *)
}

val run :
  ?progress:(int -> unit) ->
  Oracle.t ->
  seed:int64 ->
  count:int ->
  (stats, failure * stats) result
(** Runs [count] cases of one oracle. Stops at the first failure, shrinks
    its scripts greedily (edit script first, then base script) while
    requiring the same failure tag, and returns the reproducer.
    [progress] is called every 500 cases. *)

val pp_failure : Format.formatter -> failure -> unit
