(** The persistence concern (an extension in the same middleware-services
    family the paper's Section 1 cites from Rouvellou et al.).

    Model level: introduce one «infrastructure» [PersistenceManager] class
    (load/store/delete), mark each configured class «persistent» with the
    backing store as a tagged value, and add a surrogate identifier
    attribute (default [id : String]) when the class has none.

    Code level: per configured class, an after-returning advice on setter
    executions marking the object dirty, and a before advice on getter
    executions ensuring the object is loaded — write-behind with lazy
    loading, parameterized by the same set as the transformation.

    Parameters:
    - [persistent] : list of class names (required)
    - [store] : ["relational" | "object-store" | "file"], default
      ["relational"]
    - [idAttribute] : surrogate key attribute name, default ["id"] *)

val concern : Concern.t
val transformation : Transform.Gmt.t
val generic_aspect : Aspects.Generic.t
