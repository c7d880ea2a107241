(** Model elements: identity, name, ownership, kind payload, and the
    extension mechanisms (stereotypes, tagged values) that concern-oriented
    transformations use to mark model parts. *)

type t = {
  id : Id.t;
  name : string;
  owner : Id.t option;  (** owning namespace; [None] only for the root *)
  kind : Kind.t;
  stereotypes : string list;  (** e.g. ["remote"; "transactional"] *)
  tags : (string * string) list;  (** tagged values, insertion-ordered *)
}

val make :
  ?stereotypes:string list ->
  ?tags:(string * string) list ->
  id:Id.t ->
  name:string ->
  owner:Id.t option ->
  Kind.t ->
  t
(** [make ~id ~name ~owner kind] is a fresh element. *)

val has_stereotype : string -> t -> bool
(** [has_stereotype s e] is [true] when [e] carries stereotype [s]. *)

val add_stereotype : string -> t -> t
(** Adds a stereotype; idempotent. *)

val remove_stereotype : string -> t -> t

val tag : string -> t -> string option
(** [tag key e] is the value of tagged value [key], if present. *)

val set_tag : string -> string -> t -> t
(** Sets a tagged value, replacing any previous binding of the key. *)

val remove_tag : string -> t -> t

val with_name : string -> t -> t
(** Renames the element. *)

val with_kind : Kind.t -> t -> t
(** Replaces the kind payload (the id, name, owner are preserved). *)

val metaclass : t -> string
(** The metaclass name of the element, see {!Kind.name}. *)

val equal : t -> t -> bool
(** Structural equality, including stereotypes and tags. *)
