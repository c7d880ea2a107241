(** Concern coloring — the paper's Section 3 visual requirement: "Visual
    tools capable of demarcating model parts that have been added to the
    model through different specialized/concrete transformations by using
    different colors. An association list between these colors and the
    concerns that have already been covered would be helpful."

    Colors are assigned to concerns in first-application order from a fixed
    palette; element colors come from the transformation trace. *)

type palette = (string * string) list
(** concern key → color name. *)

val demarcate : Mof.Model.t -> Transform.Trace.t -> string
(** A model listing in which every concern-introduced element is prefixed
    with its color, e.g. ["[red] Class AccountProxy"], and functional
    elements are unmarked. Ends with the legend. *)

val demarcate_html : Mof.Model.t -> Transform.Trace.t -> string
(** The same demarcation as a standalone HTML page — the closest a CLI tool
    gets to the paper's "visual tools capable of demarcating model parts …
    by using different colors": one row per element, colored by the
    introducing concern, with the color/concern association list and the
    per-concern element counts. Element names are HTML-escaped. *)
