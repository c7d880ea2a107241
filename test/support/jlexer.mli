(** Lexer for the Java-like source subset that {!Code.Printer} emits. *)

type token =
  | T_int of int
  | T_double of float
  | T_string of string  (** contents, unescaped *)
  | T_ident of string  (** identifiers and keywords *)
  | T_comment of string  (** a [//] line comment's text, trimmed *)
  | T_punct of string
      (** one of [; , . ( ) { } < > = ! & | + - * / == != <= >= && ||] *)
  | T_eof

val token_text : token -> string

type located = {
  token : token;
  pos : int;
}

exception Lex_error of string * int

val tokenize : string -> located list
(** Comments are kept as tokens (the statement parser turns them into
    {!Code.Jstmt.S_comment}); whitespace separates. *)
