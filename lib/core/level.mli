(** MDA abstraction levels: platform-independent and platform-specific
    models. The level is recorded as tagged values on the model's root
    package. *)

type t =
  | Pim
  | Psm of string  (** platform key, e.g. ["corba"] *)

val to_string : t -> string
(** ["PIM"] or ["PSM(corba)"]. *)

val mark : t -> Mof.Model.t -> Mof.Model.t
(** Records the level (and platform, for PSMs) on the root package. *)

val of_model : Mof.Model.t -> t option
(** Reads the level back; [None] for unmarked models. *)
