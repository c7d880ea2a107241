(** Edit scripts: serializable sequences of model operations.

    A script is the fuzzer's unit of generation, replay, and shrinking. Ops
    reference elements by *slot* — the ordinal of the creation op that
    produced them (slot 0 is the root package) — so a script is
    self-contained: it can be pretty-printed into a reproducer, re-applied
    to a fresh store, and remains applicable (if not semantics-preserving)
    under arbitrary sublist shrinking. Ops whose slots are unresolvable or
    whose target has the wrong kind are skipped; {!apply} is total. *)

(** Datatype spec; [D_ref] names a slot. *)
type dt =
  | D_void
  | D_boolean
  | D_integer
  | D_real
  | D_string
  | D_ref of int
  | D_collection of dt

type op =
  | Add_package of { owner : int; name : string }
  | Add_class of { owner : int; name : string; abstract : bool }
  | Add_interface of { owner : int; name : string }
  | Add_attribute of {
      cls : int;
      name : string;
      typ : dt;
      static : bool;
      initial : string option;
    }
  | Add_operation of { owner : int; name : string; abstract : bool; query : bool }
  | Add_parameter of { op : int; name : string; typ : dt }
  | Set_result of { op : int; typ : dt }
  | Add_generalization of { child : int; parent : int }
  | Add_realization of { cls : int; iface : int }
  | Add_association of { owner : int; name : string; from_ : int; to_ : int }
  | Add_enumeration of { owner : int; name : string; literals : string list }
  | Add_constraint of {
      owner : int;
      name : string;
      constrained : int list;
      body : string;
    }
  | Add_stereotype of { target : int; stereotype : string }
  | Remove_stereotype of { target : int; stereotype : string }
  | Set_tag of { target : int; key : string; value : string }
  | Remove_tag of { target : int; key : string }
  | Rename of { target : int; name : string }
  | Delete of { target : int }

type script = op list

val apply_with_slots : Mof.Model.t -> script -> Mof.Model.t * Mof.Id.t array
(** Like {!apply}, also returning the bound slot table (index [i] is the id
    bound to slot [i]; index 0 is the root). *)

val apply_from : Mof.Model.t -> slots:Mof.Id.t array -> script -> Mof.Model.t
(** Applies a script whose slot references start from a previously bound
    table (as returned by {!apply_with_slots}) — how an edit script
    continues a base script: slots below [Array.length slots] resolve into
    the base, new creations bind slots after it. *)

val to_string : script -> string
