(** A seeded pseudo-random number generator (splitmix64).

    The harness never touches [Stdlib.Random]: every random decision flows
    from an explicit 64-bit seed, so any failing fuzz case is replayable
    from the (seed, case index) pair printed in the failure report. *)

type t
(** Mutable generator state. *)

val make : int64 -> t
(** A generator seeded with the given value. Equal seeds yield equal
    streams. *)

val mix : int64 -> int -> int64
(** [mix seed salt] derives a new seed deterministically; used to give every
    fuzz case (and every auxiliary stream inside a case) its own independent
    seed. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val range : t -> int -> int -> int
(** [range g lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bool : t -> bool

val chance : t -> int -> int -> bool
(** [chance g num den] is true with probability [num/den]. *)

val choose : t -> 'a list -> 'a
(** Uniform pick from a non-empty list. Raises [Invalid_argument] on []. *)

val shuffle : t -> 'a list -> 'a list
(** A uniform permutation. *)
