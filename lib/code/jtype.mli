(** Types of the Java-like code model. *)

type t =
  | T_void
  | T_boolean
  | T_int
  | T_double
  | T_string  (** java.lang.String *)
  | T_named of string  (** a class or interface by simple name *)
  | T_list of t  (** java.util.List<t> *)

val to_string : t -> string
(** Java surface syntax, e.g. ["List<Account>"]. *)

val default_value_text : t -> string option
(** The literal a generated stub returns: ["0"], ["false"], ["null"], …;
    [None] for [T_void]. *)

val of_datatype : Mof.Model.t -> Mof.Kind.datatype -> t
(** Maps a model datatype: [Real] to [double], [Dt_ref c] to the
    classifier's name, collections to [List<…>]. *)
