(** Concern identities.

    A concern is one dimension of separation (the paper's C_i): middleware
    services such as distribution, transactions, security, concurrency —
    plus any user-defined dimension. The [key] is the stable identifier that
    links a generic model transformation, its generic aspect, trace entries,
    and workflow colors. *)

type t = {
  key : string;  (** stable identifier, e.g. ["distribution"] *)
  display : string;  (** e.g. ["Distribution"] *)
  description : string;
}

val make : ?description:string -> key:string -> display:string -> unit -> t

val pp : Format.formatter -> t -> unit
