(** The code-model interpreter.

    Executes methods of a {!Code.Junit.program} with a mutable heap and a
    middleware runtime whose built-in classes ([TransactionManager],
    [Logger], [LockManager], [AccessController] + [SecurityContext],
    [RemoteRuntime], [NamingService], [PersistenceManager],
    [MessageQueue]) record an {!Event.t} trace instead of talking to real
    middleware. This makes the effect of woven aspects
    observable and testable end-to-end — the behavioural closure of the
    paper's Fig. 2.

    Supported: all statement and expression forms of the code model; field
    access and assignment; local variables with assignment; [new] (fields
    default-initialized, constructor arguments ignored — the generator emits
    no constructors); virtual dispatch along [extends]; exceptions with
    try/catch/finally ([RuntimeException] conforms to [Exception] conforms
    to [Throwable], [Error] conforms to [Throwable] but not to [Exception],
    program classes conform along their [extends] chain);
    [synchronized] blocks (recorded as [Monitor.enter]/[Monitor.exit]
    events); string concatenation via [+].

    Fault injection: [faults] names program methods that throw a
    [RuntimeException] as soon as they are entered — how tests drive the
    rollback path of the transaction aspect. *)

exception Runtime_error of string
(** Genuine interpreter errors: unknown class/method/field, arity mismatch,
    type confusion. Distinct from in-program Java exceptions, which are
    values. *)

(** Result of a finished execution. *)
type outcome = {
  result : (Rvalue.t, string) Stdlib.result;
      (** [Ok v] on normal completion, [Error class_name] when an exception
          escaped the called method *)
  events : Event.t list;  (** emission order *)
}

val run :
  ?faults:(string * string) list ->
  ?args:Rvalue.t list ->
  Code.Junit.program ->
  class_name:string ->
  method_name:string ->
  outcome
(** One-shot convenience: create a machine, instantiate [class_name], invoke
    [method_name] with [args], and return the outcome with the event
    trace. The class is looked up by name once, and that declaration is
    both instantiated and dispatched on: field collection and method search
    walk [extends] from it, so only superclasses are looked up by name.
    A lookup scans the program's units in place ({!Code.Junit.find_class}),
    so what a run allocates does not grow with the number of classes.

    A run allocates only what it executes. Its heap is an array indexed by
    the references it hands out; dereferencing any other reference, such
    as a caller-supplied [V_object] in [args], raises
    [Runtime_error "dangling heap reference @n"]. Each builtin singleton
    is allocated on first use and remembered for the rest of the run.
    Locals and fields live in short lists of cells, and assigning a name
    updates its cell in place. An event's detail is rendered only when the
    event is recorded.
    @raise Runtime_error only for genuine interpreter errors. *)

val method_params :
  Code.Junit.program ->
  class_name:string ->
  method_name:string ->
  Code.Jdecl.param list
(** Parameters of the method {!run} dispatches to for [class_name] and
    [method_name], which may be inherited along [extends].
    @raise Runtime_error with the text {!run} would raise when it cannot
    instantiate the class or find the method. *)
