(** Element kinds of the UML-core metamodel.

    The metamodel covers the class-diagram subset of UML 1.4 that the paper's
    concern-oriented transformations act upon: packages, classifiers
    (classes, interfaces), structural features (attributes), behavioural
    features (operations with parameters), relationships (associations,
    generalizations, dependencies), and constraints. Stereotypes and tagged
    values live on {!Element.t} rather than here, since any element kind may
    carry them. *)

(** Visibility of a feature or classifier. *)
type visibility =
  | Public
  | Private
  | Protected
  | Package_level

val visibility_to_string : visibility -> string
(** Lower-case UML keyword for a visibility, e.g. ["public"]. *)

val visibility_of_string : string -> visibility option
(** Inverse of {!visibility_to_string}. *)

(** Multiplicity of a feature or association end: [lower .. upper], where
    [upper = None] denotes the unbounded ["*"]. *)
type multiplicity = {
  lower : int;
  upper : int option;
}

val mult_one : multiplicity
(** Exactly one: [1..1]. *)

val mult_many : multiplicity
(** Any number: [0..*]. *)

val mult_to_string : multiplicity -> string
(** UML surface syntax, e.g. ["0..*"] or ["1"]. *)

val mult_of_string : string -> multiplicity option
(** Inverse of {!mult_to_string}; also accepts the shorthand ["*"]. *)

val mult_valid : multiplicity -> bool
(** A multiplicity is valid when [0 <= lower] and [lower <= upper]. *)

(** Types of attributes, parameters, and operation results. [Dt_ref]
    references a classifier by id; [Dt_collection] is a homogeneous
    unordered collection. *)
type datatype =
  | Dt_void
  | Dt_boolean
  | Dt_integer
  | Dt_real
  | Dt_string
  | Dt_ref of Id.t
  | Dt_collection of datatype

(** Direction of an operation parameter. The operation result is modelled as
    a parameter with direction [Dir_return]. *)
type direction =
  | Dir_in
  | Dir_out
  | Dir_inout
  | Dir_return

val direction_to_string : direction -> string
val direction_of_string : string -> direction option

(** Aggregation of an association end. *)
type aggregation =
  | Ag_none
  | Ag_shared
  | Ag_composite

val aggregation_to_string : aggregation -> string
val aggregation_of_string : string -> aggregation option

(** One end of an association: the classifier it touches, its role name,
    multiplicity, navigability, and aggregation. *)
type assoc_end = {
  end_name : string;
  end_type : Id.t;
  end_mult : multiplicity;
  end_navigable : bool;
  end_aggregation : aggregation;
}

(** Payload of a class: named so that queries and transformations can pass
    it around (inline records cannot escape their match). Containment lists
    hold ids of child elements whose [owner] field points back; {!Builder}
    maintains this bidirectional consistency and {!Wellformed} checks it. *)
type class_payload = {
  is_abstract : bool;
  attributes : Id.t list;
  operations : Id.t list;
  supers : Id.t list;  (** ids of superclasses *)
  realizes : Id.t list;  (** ids of realized interfaces *)
}

type t =
  | Package of { owned : Id.t list }
  | Class of class_payload
  | Interface of { operations : Id.t list }
  | Attribute of {
      attr_type : datatype;
      attr_visibility : visibility;
      attr_mult : multiplicity;
      is_derived : bool;
      is_static : bool;
      initial_value : string option;
    }
  | Operation of {
      params : Id.t list;
      op_visibility : visibility;
      is_query : bool;
      is_abstract_op : bool;
      is_static_op : bool;
    }
  | Parameter of {
      param_type : datatype;
      direction : direction;
    }
  | Association of { ends : assoc_end list }
  | Generalization of { child : Id.t; parent : Id.t }
  | Dependency of { client : Id.t; supplier : Id.t }
  | Constraint_ of {
      constrained : Id.t list;
      body : string;  (** constraint text, in [language] *)
      language : string;  (** e.g. ["OCL"] *)
    }
  | Enumeration of { literals : string list }
      (** a closed value type; literals are plain names, not elements *)

val name : t -> string
(** Metaclass name of a kind, e.g. ["Class"], ["Attribute"]. These names are
    the classifier names visible to OCL ([Class.allInstances()], …) and the
    XMI tag names. *)

val all_names : string list
(** Every metaclass name, in a fixed order. *)

val refs : t -> Id.t list
(** Every id mentioned by the kind payload (children and cross-references);
    used by well-formedness checking and diffing. *)

val equal : t -> t -> bool
(** Structural equality of kind payloads. *)
