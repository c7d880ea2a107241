(** Wizard support — the paper's "concern-oriented wizards for configuring
    the generic model transformations along a concern-dimension", in
    CLI form: question generation from formal parameter declarations and
    parsing of textual assignments. *)

val render_questions : Transform.Params.decl list -> string
(** The wizard prompt text, one line per parameter. *)

val parse_assignments :
  Transform.Params.decl list ->
  string list ->
  ((string * Transform.Params.value) list, string) result
(** All-or-nothing parsing of a list of ["name=text"] inputs. *)
