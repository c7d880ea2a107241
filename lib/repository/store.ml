module Dmap = Map.Make (String)

type digest = string

(* Each object keeps its canonical bytes alongside the element: the digest
   was computed from them, the snapshot writes them verbatim, and [bytes]
   accounts them — recomputing the rendering on every save would triple the
   encode work for no memory win (the bytes are a fraction of the element). *)
type t = {
  objects : (Mof.Element.t * string) Dmap.t;
  count : int;
  total_bytes : int;
}

let empty = { objects = Dmap.empty; count = 0; total_bytes = 0 }

let add t e =
  let bytes = Mof.Canon.element_bytes e in
  let digest = Digest.string bytes in
  if Dmap.mem digest t.objects then (t, digest)
  else
    ( {
        objects = Dmap.add digest (e, bytes) t.objects;
        count = t.count + 1;
        total_bytes = t.total_bytes + String.length bytes;
      },
      digest )

let find t d = Option.map fst (Dmap.find_opt d t.objects)

let find_exn t d =
  match find t d with
  | Some e -> e
  | None ->
      invalid_arg
        ("Repository.Store.find_exn: unknown digest " ^ Mof.Canon.digest_hex d)

let count t = t.count
let bytes t = t.total_bytes

let fold f t init =
  Dmap.fold (fun d (e, bytes) acc -> f d e bytes acc) t.objects init
