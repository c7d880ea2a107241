type tree = Store.digest Mof.Id.Map.t

type version = Built of Mof.Model.t | Unbuilt of { root : Mof.Id.t; next : int }

type t = {
  id : int;
  parent : int option;
  message : string;
  tree : tree;
  model : version Atomic.t;
  diff : Mof.Diff.t;
  transformation : string option;
  concern : string option;
}

let tree_size t = Mof.Id.Map.cardinal t.tree

let summary t =
  Format.asprintf "#%d %s (%a)%s" t.id t.message Mof.Diff.pp t.diff
    (match t.concern with Some c -> " [" ^ c ^ "]" | None -> "")
