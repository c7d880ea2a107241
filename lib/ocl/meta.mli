(** Reflection of the {!Mof} metamodel into the OCL object space.

    OCL pre/postconditions of model transformations constrain *models*, so
    the evaluator's object population is the set of model elements. This
    module defines the meta-properties each metaclass exposes (what
    [self.name], [self.attributes], … mean) and the classifier extents
    behind [Class.allInstances()]. *)

val property : Mof.Model.t -> Mof.Id.t -> string -> Value.t option
(** [property m id name] is the value of meta-property [name] on element
    [id], or [None] when the metaclass has no such property.

    Properties common to all metaclasses: [name], [qualifiedName],
    [metaclass], [stereotypes] (Set(String)), [tagKeys] (Set(String)),
    [owner] (Element or undefined).

    Per metaclass:
    - Package: [ownedElements]
    - Class: [attributes], [operations], [allOperations], [supers],
      [allSupers], [interfaces], [isAbstract]
    - Interface: [operations], [realizers]
    - Attribute: [type], [visibility], [lower], [upper] (-1 encodes "*"),
      [isDerived], [isStatic], [initial]
    - Operation: [parameters], [visibility], [isQuery], [isAbstract],
      [isStatic], [resultType], [class]
    - Parameter: [type], [direction]
    - Association: [endTypes], [endNames]
    - Generalization: [child], [parent]
    - Dependency: [client], [supplier]
    - Constraint: [body], [language], [constrained]
    - Enumeration: [literals] (Sequence(String)) *)

val operation :
  Mof.Model.t -> Mof.Id.t -> string -> Value.t list -> Value.t option
(** Meta-operations on elements: [hasStereotype(s)], [hasTag(k)], [tag(k)]
    (String or undefined). [None] when the name/arity is not a
    meta-operation. *)

val all_instances : Mof.Model.t -> string -> Value.t option
(** [all_instances m "Class"] is the Set of all class elements; ["Element"]
    yields every element. [None] for unknown classifier names. Built on
    every call, from {!Mof.Model.by_kind} for a metaclass and from the
    store for ["Element"], in ascending id order. *)

val is_metaclass : string -> bool
(** Whether a name denotes a metaclass usable in [allInstances] and
    [oclIsKindOf]. ["Element"] is included. *)
