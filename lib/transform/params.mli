(** Typed transformation parameters — the paper's P_ik and S_i.

    A generic transformation for concern [i] declares formal parameters
    (P_i1, P_i2, …); a parameter set S_i assigns values to them and
    specializes both the transformation and (later, with the same set) the
    associated generic aspect. Declarations carry enough structure for the
    wizard-style configuration of Section 3: type, documentation, default,
    and requiredness. *)

(** Parameter types. [P_ident] holds the qualified name of a model element;
    [P_enum] a closed set of keywords. *)
type ptype =
  | P_string
  | P_int
  | P_bool
  | P_ident
  | P_enum of string list
  | P_list of ptype

val ptype_to_string : ptype -> string

(** Parameter values. *)
type value =
  | V_string of string
  | V_int of int
  | V_bool of bool
  | V_ident of string
  | V_list of value list

val value_to_string : value -> string
(** Human-readable rendering, e.g. for reports. *)

val value_conforms : value -> ptype -> bool
(** Does a value fit a parameter type? [V_string] is accepted for [P_enum]
    when it is one of the cases; [V_ident]/[V_string] are interchangeable
    where a name is expected. *)

(** A formal parameter declaration. *)
type decl = {
  pname : string;
  ptype : ptype;
  doc : string;
  required : bool;
  default : value option;
}

val decl :
  ?doc:string -> ?required:bool -> ?default:value -> string -> ptype -> decl
(** [decl name ptype] declares a parameter; [required] defaults to [true]
    when no default is given, [false] otherwise. *)

(** A parameter set S_i: validated assignments to a declaration list. *)
type set

val names : set -> string list
(** Assigned parameter names, declaration order. *)

val bindings : set -> (string * value) list

(** Validation problems found by {!build}. *)
type problem =
  | Missing of string  (** required parameter not assigned *)
  | Unknown of string  (** assignment to an undeclared parameter *)
  | Type_mismatch of string * ptype * value

val pp_problem : Format.formatter -> problem -> unit

val build : decl list -> (string * value) list -> (set, problem list) result
(** Validates assignments against declarations; defaults are filled in. *)

val get : set -> string -> value
(** @raise Not_found for unassigned names (cannot happen for parameters that
    are required or have defaults). *)

val find : set -> string -> value option
val get_string : set -> string -> string
(** Coerces [V_string]/[V_ident]; @raise Invalid_argument otherwise. *)

val get_int : set -> string -> int
val get_bool : set -> string -> bool

val get_names : set -> string -> string list
(** A [P_list P_ident] (or strings) parameter as a name list. *)
