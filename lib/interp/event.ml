type t = {
  source : string;
  action : string;
  detail : string;
}

let make ~source ~action ~detail = { source; action; detail }

let to_string e = Printf.sprintf "%s.%s(%s)" e.source e.action e.detail
