(** Read-only navigation over models: classifier listings, feature lookups,
    qualified names, and inheritance closure.

    All listings come back in ascending id order — the order the historical
    full-scan implementations produced — but are now served from the model's
    secondary indexes ({!Model.by_kind}, {!Model.by_name}), so a lookup
    costs O(log n + r) for r results instead of O(n). The byte-for-byte
    agreement with a full scan is pinned by the randomized consistency test
    in [test_mof.ml], and the [query] oracle holds the indexes to a rescan.

    A qualified name is rendered, never resolved: the code generator and
    OCL print it, and nothing looks an element up by it. *)

val classes : Model.t -> Element.t list
(** All class elements, in id order. O(log n + r). *)

val interfaces : Model.t -> Element.t list
val packages : Model.t -> Element.t list
val associations : Model.t -> Element.t list
val constraints : Model.t -> Element.t list
val enumerations : Model.t -> Element.t list

val attributes_of : Model.t -> Id.t -> Element.t list
(** Attributes owned directly by a class (empty for other kinds). *)

val operations_of : Model.t -> Id.t -> Element.t list
(** Operations owned directly by a class or interface. *)

val parameters_of : Model.t -> Id.t -> Element.t list
(** Parameters of an operation, excluding the return parameter. *)

val result_of : Model.t -> Id.t -> Kind.datatype
(** Result type of an operation: the type of its return parameter, or
    [Dt_void] when it has none. *)

val public_operations_of : Model.t -> Id.t -> Element.t list
(** Operations of a classifier with [Public] visibility. *)

val owned_of : Model.t -> Id.t -> Element.t list
(** Direct contents of a package. *)

val supers_transitive : Model.t -> Id.t -> Id.t list
(** Transitive superclass closure of a class, nearest first, without
    duplicates. Cycles terminate; a class on an inheritance cycle through
    itself appears in its own closure (how {!Wellformed} detects cycles).
    Dangling super ids (a referenced class that was deleted) stay in the
    closure but are not expanded, so the traversal is total on ill-formed
    models. *)

val realizers_of : Model.t -> Id.t -> Element.t list
(** Classes that realize a given interface. *)

val qualified_name : Model.t -> Id.t -> string
(** Dot-separated path from the root package (excluded) to the element,
    e.g. ["bank.Account.balance"]. The root element's qualified name is its
    own name. O(depth). *)

val find_class : Model.t -> string -> Element.t option
(** First class with the given simple name (intersection of the kind and
    name indexes). *)

val containing_class : Model.t -> Id.t -> Id.t option
(** Nearest enclosing class of an element, if any. *)
