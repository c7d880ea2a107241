(** Well-formedness checking.

    A transformation engine needs a cheap, complete structural check to run
    between a transformation's OCL postconditions and the commit of the new
    model version. The checks here are those UML 1.4 well-formedness rules
    that the metamodel can express. *)

(** One violation, locating the offending element and describing the rule
    broken. *)
type violation = {
  subject : Id.t;
  rule : rule;
  message : string;
}

and rule =
  | Dangling_reference  (** an id mentioned by an element is unbound *)
  | Owner_mismatch  (** containment list and [owner] field disagree *)
  | Duplicate_name  (** two same-kind siblings share a name *)
  | Inheritance_cycle  (** a class is its own transitive superclass *)
  | Invalid_multiplicity  (** lower bound negative or above upper *)
  | Malformed_association  (** fewer than two ends *)
  | Abstract_leaf  (** concrete class with abstract operations *)
  | Empty_name  (** element with an empty name *)
  | Duplicate_literal  (** an enumeration declares a literal twice *)

val check : Model.t -> violation list
(** All violations in the model, in deterministic order (elements in
    ascending id order, rules in a fixed order per element). An empty list
    means the model is well-formed. O(model). *)

val check_touched : Model.t -> touched:Id.Set.t -> violation list
(** Re-validates only the region of the model whose verdicts can depend on
    the [touched] ids (typically {!Diff.touched} of a journal diff): the
    touched elements, their referrers, the elements they own, and their
    transitive subclasses. Cost is proportional to that region, not the
    model. Sound for incremental use: if the model was well-formed before
    the touching mutations, [check_touched] reports exactly what {!check}
    would — any violation a mutation can introduce is anchored at an element
    in the scoped region. Violations outside the region that predate the
    mutations are (by design) not re-reported. *)

val pp_violation : Format.formatter -> violation -> unit
