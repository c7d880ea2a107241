type tree = Tree.t

type t = {
  id : int;
  parent : int option;
  message : string;
  tree : tree;
  model : Mof.Model.t;
  diff : Mof.Diff.t;
  transformation : string option;
  concern : string option;
}

let tree_size t = Tree.cardinal t.tree

let summary t =
  Format.asprintf "#%d %s (%a)%s" t.id t.message Mof.Diff.pp t.diff
    (match t.concern with Some c -> " [" ^ c ^ "]" | None -> "")

let pp ppf t = Format.pp_print_string ppf (summary t)
