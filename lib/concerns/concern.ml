type t = {
  key : string;
  display : string;
  description : string;
}

let make ?(description = "") ~key ~display () = { key; display; description }
let pp ppf t = Format.fprintf ppf "%s (%s)" t.display t.key
