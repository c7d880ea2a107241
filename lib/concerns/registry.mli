(** The concern registry: the catalogue the refinement wizards and the
    pipeline resolve concern keys against.

    Each entry pairs a concern's generic model transformation with its
    generic aspect — Fig. 1's GMT_Ci/GAC_i association — declared over the
    same formal parameters. Eight concerns are builtin, in this order: the
    seven middleware concerns (distribution, transactions, security,
    concurrency, logging, persistence, messaging) and the PIM-to-PSM
    projection ({!Platform}). Nothing changes the registry at run time but
    {!register}, which admits user-defined concerns after validating the
    pairing, and {!reset}. *)

type entry = {
  concern : Concern.t;
  gmt : Transform.Gmt.t;
  gac : Aspects.Generic.t;
}

val all : unit -> entry list
(** The builtins, then everything {!register}ed, in registration order. *)

val find_gmt : string -> Transform.Gmt.t option
(** The generic model transformation of a concern key. *)

val find_gac : string -> Aspects.Generic.t option
(** The generic aspect of a concern key. *)

val register : entry -> (unit, string list) result
(** Adds a user-defined concern. Rejected (with diagnostics) when the key is
    already taken, when transformation/aspect concern keys disagree, when
    their formal parameter lists differ, or when the generic conditions fail
    static validation ({!Transform.Gmt.validate_conditions}). *)

val reset : unit -> unit
(** Drops every registered (non-builtin) entry — for tests. *)
