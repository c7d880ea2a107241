(* Sanity checks on concrete aspects. No step of the pipeline validates an
   aspect, so the checker lives with the tests that hold the builtin
   concerns' aspects to it. *)

let is_proceed (recv, name, _) = recv = None && String.equal name "proceed"

(* Whether the body contains the [proceed()] marker, at any depth. *)
let mentions_proceed (a : Aspects.Advice.t) =
  List.exists
    (Code.Jstmt.fold_expr
       (fun found e ->
         found || Code.Jexpr.fold_calls (fun acc c -> acc || is_proceed c) false e)
       false)
    a.Aspects.Advice.body

(* Diagnostics: around advice without a [proceed()] marker, other advice
   with one, and an inter-type field declared twice on one pattern. Empty
   means valid. *)
let validate (t : Aspects.Aspect.t) =
  let name = t.Aspects.Aspect.aspect_name in
  let advice_diags =
    List.filter_map
      (fun (a : Aspects.Advice.t) ->
        match (a.Aspects.Advice.time, mentions_proceed a) with
        | Aspects.Advice.Around, false ->
            Some
              (Printf.sprintf "%s: around advice %s has no proceed() marker" name
                 a.Aspects.Advice.advice_name)
        | (Aspects.Advice.Before | Aspects.Advice.After | Aspects.Advice.After_returning), true
          ->
            Some
              (Printf.sprintf "%s: %s advice %s calls proceed()" name
                 (Aspects.Advice.time_to_string a.Aspects.Advice.time)
                 a.Aspects.Advice.advice_name)
        | _, _ -> None)
      t.Aspects.Aspect.advices
  in
  let fields =
    List.filter_map
      (function
        | Aspects.Aspect.It_field (p, f) -> Some (p, f.Code.Jdecl.field_name)
        | Aspects.Aspect.It_method _ -> None)
      t.Aspects.Aspect.intertypes
  in
  let rec dup_diags seen = function
    | [] -> []
    | ((pattern, field) as key) :: rest ->
        if List.mem key seen then
          Printf.sprintf "%s: duplicate inter-type field %s on %s" name field pattern
          :: dup_diags seen rest
        else dup_diags (key :: seen) rest
  in
  advice_diags @ dup_diags [] fields
