(** Generic aspects (the paper's GAC_i).

    A generic aspect declares the *same* formal parameters as its concern's
    generic model transformation and an instantiation function producing a
    concrete aspect from a parameter set. Fig. 1's central claim — "the set
    of parameters S_i, used to specialize the generic model transformation,
    could be used to specialize the corresponding generic aspect as well" —
    is this module: one {!Transform.Params.set} flows into both. *)

type t = {
  ga_name : string;
  concern : string;
  formals : Transform.Params.decl list;
  instantiate : Transform.Params.set -> Aspect.t;
}

val make :
  name:string ->
  concern:string ->
  formals:Transform.Params.decl list ->
  (Transform.Params.set -> Aspect.t) ->
  t

val specialize_with_set : t -> Transform.Params.set -> Aspect.t
(** Instantiate with an already-validated set: the set comes from the
    concern's concrete model transformation. *)
