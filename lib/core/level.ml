type t =
  | Pim
  | Psm of string

let to_string = function
  | Pim -> "PIM"
  | Psm platform -> "PSM(" ^ platform ^ ")"

let mark level m =
  match level with
  | Pim -> Mof.Model.set_level_tag "PIM" m
  | Psm platform ->
      let m = Mof.Model.set_level_tag "PSM" m in
      Mof.Builder.set_tag m (Mof.Model.root m) "platform" platform

let of_model m =
  match Mof.Model.level_tag m with
  | Some "PIM" -> Some Pim
  | Some "PSM" ->
      let root = Mof.Model.find_exn m (Mof.Model.root m) in
      Some
        (Psm (Option.value ~default:"unknown" (Mof.Element.tag "platform" root)))
  | Some _ | None -> None
