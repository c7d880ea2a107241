(** Aspects: named bundles of inter-type declarations and advice for one
    concern. A *concrete* aspect (the paper's CAC_i = GAC_i⟨S_i⟩) is a value
    of this type produced by specializing a {!Generic} aspect. *)

(** Members an aspect injects into matching classes. *)
type intertype =
  | It_field of Pattern.t * Code.Jdecl.field
      (** add a field to every class matching the pattern *)
  | It_method of Pattern.t * Code.Jdecl.method_
      (** add a method to every class matching the pattern *)

type t = {
  aspect_name : string;
  concern : string;
  intertypes : intertype list;
  advices : Advice.t list;
}

val make :
  ?intertypes:intertype list ->
  ?advices:Advice.t list ->
  name:string ->
  concern:string ->
  unit ->
  t
