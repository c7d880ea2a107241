(** The concern registry: the catalogue the refinement wizards and the
    pipeline resolve concern keys against.

    Each entry pairs a concern's generic model transformation with its
    generic aspect — Fig. 1's GMT_Ci/GAC_i association — declared over the
    same formal parameters. The five middleware concerns of the paper's
    Section 1 are registered by default; {!register} admits user-defined
    concerns after validating the pairing. *)

type entry = {
  concern : Concern.t;
  gmt : Transform.Gmt.t;
  gac : Aspects.Generic.t;
}

val all : unit -> entry list
(** Builtins plus everything {!register}ed, registration order. *)

val find : string -> entry option
(** Lookup by concern key. *)

val find_gmt : string -> Transform.Gmt.t option
val find_gac : string -> Aspects.Generic.t option

val register : entry -> (unit, string list) result
(** Adds a user-defined concern. Rejected (with diagnostics) when the key is
    already taken, when transformation/aspect concern keys disagree, when
    their formal parameter lists differ, or when the generic conditions fail
    static validation ({!Transform.Gmt.validate_conditions}). *)

val reset : unit -> unit
(** Drops every registered (non-builtin) entry — for tests. *)
