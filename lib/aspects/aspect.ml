type intertype =
  | It_field of Pattern.t * Code.Jdecl.field
  | It_method of Pattern.t * Code.Jdecl.method_

type t = {
  aspect_name : string;
  concern : string;
  intertypes : intertype list;
  advices : Advice.t list;
}

let make ?(intertypes = []) ?(advices = []) ~name ~concern () =
  { aspect_name = name; concern; intertypes; advices }
