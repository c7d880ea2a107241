type t = {
  ga_name : string;
  concern : string;
  formals : Transform.Params.decl list;
  instantiate : Transform.Params.set -> Aspect.t;
}

let make ~name ~concern ~formals instantiate =
  { ga_name = name; concern; formals; instantiate }

let specialize_with_set t set = t.instantiate set
