(** Concrete model transformations (the paper's CMT_Ci = GMT_Ci⟨S_i⟩).

    Specialization binds a parameter set to a generic transformation. Its
    pre/postconditions stay the GMT's, parsed once; {!env} binds their
    [$param$] variables to the parameter values when they are checked. The
    same parameter set later specializes the concern's generic aspect — see
    {!Aspects.Generator} — which is the paper's answer to the
    semantic-coupling problem. *)

type t = {
  gmt : Gmt.t;
  params : Params.set;
}

val specialize :
  Gmt.t -> (string * Params.value) list -> (t, Params.problem list) result
(** Validates the assignments against the GMT's formals. *)

val specialize_exn : Gmt.t -> (string * Params.value) list -> t
(** @raise Invalid_argument listing the problems. *)

val name : t -> string
(** The concrete name, e.g. ["T.distribution<Account, Teller>"] — GMT name
    plus rendered parameter values, mirroring the paper's T1⟨p11,p12,…⟩
    notation. *)

val concern : t -> string

val env : t -> Ocl.Env.t
(** The OCL environment under which the GMT's conditions are checked: each
    parameter [p] bound as the variable {!Gmt.variable}[ p] ([$p$]). Names,
    strings and enum cases become [String], lists [Set], ints [Integer],
    bools [Boolean]. *)

val rewrite : t -> Mof.Model.t -> Mof.Model.t
(** Applies the underlying rewrite with the bound parameters. No condition
    checking — use {!Engine.apply} for the full checked pipeline.
    @raise Gmt.Rewrite_error *)
