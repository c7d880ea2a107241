(* Building and reading [Xmi.Xml] trees in tests. The XMI reader works on
   the pull parser's events, so nothing in the pipeline walks a tree. *)

let elem ?(attrs = []) tag children = Xmi.Xml.Elem { tag; attrs; children }
let text s = Xmi.Xml.Text s
let tag = function Xmi.Xml.Elem { tag; _ } -> Some tag | Xmi.Xml.Text _ -> None

let attr name = function
  | Xmi.Xml.Elem { attrs; _ } -> List.assoc_opt name attrs
  | Xmi.Xml.Text _ -> None

let children = function Xmi.Xml.Elem { children; _ } -> children | Xmi.Xml.Text _ -> []

(* Children that are element nodes. *)
let child_elems node = List.filter (fun c -> tag c <> None) (children node)

let find_children wanted node = List.filter (fun c -> tag c = Some wanted) (children node)
let find_child wanted node = List.find_opt (fun c -> tag c = Some wanted) (children node)

(* The node's direct text children, concatenated. *)
let text_content node =
  String.concat ""
    (List.filter_map
       (function Xmi.Xml.Text s -> Some s | Xmi.Xml.Elem _ -> None)
       (children node))
