(** The distribution concern (the paper's C1).

    Model level (GMT): for every configured class [C], introduce a
    [CRemote] interface carrying [C]'s public operations, a [CProxy] class
    realizing it with a [target : C] attribute and a «delegates» dependency,
    mark [C] «remote», and introduce one shared «infrastructure»
    [NamingService] class.

    Code level (GAC): for every configured class, an inter-type
    [__remoteId] field and a before-execution advice exporting the
    object to the remote runtime with the configured protocol and registry
    address — specialized by the same parameter set as the transformation.

    Parameters (P_1k):
    - [remote] : list of class names to distribute (required)
    - [protocol] : ["rmi" | "corba" | "ws"], default ["rmi"]
    - [registry] : naming-service address, default ["localhost:1099"] *)

val concern : Concern.t
val transformation : Transform.Gmt.t
val generic_aspect : Aspects.Generic.t
