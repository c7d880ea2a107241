(** The messaging/communication concern (the first middleware service the
    paper's Section 1 names is "communication").

    Unlike the other concerns, its unit of configuration is the *operation*:
    the parameter names qualified operations ([Class.operation]) that should
    be invoked asynchronously through a message queue.

    Model level: introduce one «infrastructure» [MessageQueue] class
    (publish/consume), mark each configured operation «async» with the queue
    name as a tagged value.

    Code level: per configured operation, a before advice on exactly that
    execution publishing the invocation to the configured queue.

    Parameters:
    - [async] : list of ["Class.operation"] names (required)
    - [queue] : queue name, default ["default-queue"] *)

val concern : Concern.t
val transformation : Transform.Gmt.t
val generic_aspect : Aspects.Generic.t
