(** Rendering of aspects as AspectJ-like source text — what an aspect
    generator plug-in (paper, Section 3) would emit for the AspectJ
    platform. *)

val generated_to_string : Generator.generated -> string
(** {!to_string} with a provenance header comment recording the source
    transformation and precedence. *)
