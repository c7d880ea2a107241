(** The join-point model: shadows in the code model where advice can
    apply, plus the static extraction of shadows from method bodies. *)

type shadow =
  | Sh_execution of {
      class_name : string;
      method_name : string;
    }  (** the execution of a method body *)
  | Sh_call of {
      within_class : string;
      within_method : string;
      receiver_class : string option;
          (** statically resolved receiver class; [None] when the receiver's
              type cannot be resolved *)
      method_name : string;
    }  (** a call site inside a method body *)
  | Sh_field_set of {
      within_class : string;
      within_method : string;
      target_class : string;
      field_name : string;
    }  (** an assignment to a field *)

val describe : shadow -> string
(** AspectJ-style description, e.g. ["execution(Account.withdraw)"] — the
    value of the [thisJoinPoint] pseudo-variable. *)

val enclosing_class : shadow -> string
(** The class the shadow is lexically within (for [within] pointcuts). *)

val execution_shadows : Code.Junit.program -> shadow list
(** Every method-execution shadow of a program (abstract/bodyless methods
    excluded). *)

(** {1 Shadow extraction}

    Call and field-set shadows live inside method bodies; resolving them
    needs the lexical scope (parameter, field and local types) of the
    enclosing method. The weaver and the interference analysis both
    extract through these functions, so they agree on what a shadow is. *)

type scope
(** The receiver-resolution scope of one method: its class plus a map from
    variable names to statically-known class names. *)

val scope_of_method : Code.Jdecl.class_ -> Code.Jdecl.method_ -> scope

val receiver_class : scope -> Code.Jexpr.t option -> string option
(** Statically resolve the class of a call receiver: [None] receiver and
    [this] resolve to the current class; names and [this.f] through the
    scope; [new C(...)] and casts to their named type; anything else is
    unresolved. *)

val call_shadows_in_expr :
  scope -> within_method:string -> Code.Jexpr.t -> shadow list
(** Call shadows occurring anywhere inside an expression (the bare
    [proceed()] marker excluded). *)

val field_set_shadows_in_expr :
  scope -> within_method:string -> Code.Jexpr.t -> shadow list
(** Field-assignment shadows with a resolvable target class. *)

val direct_exprs : Code.Jstmt.t -> Code.Jexpr.t list
(** The expressions held directly by a statement — not those of nested
    statements. Every expression of a body is a direct expression of
    exactly one statement. *)

val statement_shadows :
  scope -> within_method:string -> Code.Jstmt.t -> shadow list
(** Call and set shadows of a statement's direct expressions — exactly the
    shadows statement advice considers when deciding to wrap it. *)

val shadows_of_method : Code.Jdecl.class_ -> Code.Jdecl.method_ -> shadow list
(** All shadows of one method in program order: the execution shadow first,
    then call/set shadows statement by statement. Empty for bodyless
    methods. *)

val shadows_of_class : Code.Jdecl.class_ -> shadow list

val all_shadows : Code.Junit.program -> shadow list
(** Every shadow of a program, all three kinds, program order. *)
