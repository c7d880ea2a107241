(** Deterministic synthetic batch workloads — the E14 model shape
    ([n] classes, each with 3 attributes and 3 one-parameter operations),
    built without any test-only dependency so the CLI ([mdweave batch
    --synthetic]) and the bench harness share one generator. *)

val synthetic : ?attrs:int -> ?ops:int -> classes:int -> string -> Mof.Model.t
(** [synthetic ~classes name] — one model named [name] with classes
    [C0 .. C{classes-1}]. Identical parameters yield identical models
    (fresh ids are drawn from the model's own counter). *)

val models : ?classes:int -> int -> Mof.Model.t list
(** [models n] — a batch of [n] independent synthetic models
    [batch0 .. batch{n-1}] of [classes] (default 20) classes each. *)
