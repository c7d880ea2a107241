type t =
  | Execution of Pattern.method_pattern
  | Call of Pattern.method_pattern
  | Set_field of Pattern.t * Pattern.t
  | Within of Pattern.t
  | And of t * t
  | Or of t * t
  | Not of t

let execution cls m = Execution (Pattern.method_pattern cls m)
let call cls m = Call (Pattern.method_pattern cls m)
let set_field cls f = Set_field (cls, f)
let within cls = Within cls

let rec to_string = function
  | Execution mp -> "execution(" ^ Pattern.method_pattern_to_string mp ^ ")"
  | Call mp -> "call(" ^ Pattern.method_pattern_to_string mp ^ ")"
  | Set_field (c, f) -> "set(" ^ c ^ "." ^ f ^ ")"
  | Within c -> "within(" ^ c ^ ")"
  | And (a, b) -> "(" ^ to_string a ^ " && " ^ to_string b ^ ")"
  | Or (a, b) -> "(" ^ to_string a ^ " || " ^ to_string b ^ ")"
  | Not a -> "!" ^ to_string a
