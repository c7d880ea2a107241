(** The security concern (the paper's C3).

    Model level: introduce «infrastructure» [Principal] and
    [AccessController] classes, mark each configured class «secured», record
    the permitted roles and authentication mode as tagged values, and add a
    «uses» dependency from each secured class to the access controller.

    Code level: a before-execution advice per configured class that
    resolves the current principal with the configured authentication mode
    and checks it against the configured roles.

    Parameters (P_3k):
    - [secured] : list of class names (required)
    - [roles] : list of role names, default [["admin"]]
    - [authentication] : ["basic" | "token" | "certificate"], default
      ["token"] *)

val concern : Concern.t
val transformation : Transform.Gmt.t
val generic_aspect : Aspects.Generic.t
