(** Tokens of the OCL subset, with source positions for error reporting. *)

type t =
  | Int of int
  | Real of float
  | String of string  (** contents, quotes stripped, escapes resolved *)
  | Ident of string
      (** identifiers and keywords other than the ones below, and
          [$name$] parameter references (dollars included) *)
  | Kw_self
  | Kw_if
  | Kw_then
  | Kw_else
  | Kw_endif
  | Kw_let
  | Kw_in
  | Kw_not
  | Kw_and
  | Kw_or
  | Kw_xor
  | Kw_implies
  | Kw_true
  | Kw_false
  | Kw_div
  | Kw_mod
  | Arrow  (** [->] *)
  | Dot
  | Comma
  | Semicolon
  | Colon
  | Pipe
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Eq
  | Neq  (** [<>] *)
  | Lt
  | Gt
  | Le
  | Ge
  | Plus
  | Minus
  | Star
  | Slash
  | Eof

(** A token paired with the 0-based offset of its first character. *)
type located = {
  token : t;
  pos : int;
}

val to_string : t -> string
(** Surface rendering of a token, for error messages. *)
