type t = {
  id : Id.t;
  name : string;
  owner : Id.t option;
  kind : Kind.t;
  stereotypes : string list;
  tags : (string * string) list;
}

let make ?(stereotypes = []) ?(tags = []) ~id ~name ~owner kind =
  { id; name; owner; kind; stereotypes; tags }

let has_stereotype s e = List.mem s e.stereotypes

let add_stereotype s e =
  if has_stereotype s e then e else { e with stereotypes = e.stereotypes @ [ s ] }

let remove_stereotype s e =
  { e with stereotypes = List.filter (fun x -> not (String.equal x s)) e.stereotypes }

let tag key e = List.assoc_opt key e.tags

let set_tag key value e =
  let rec replace = function
    | [] -> [ (key, value) ]
    | (k, _) :: rest when String.equal k key -> (k, value) :: rest
    | kv :: rest -> kv :: replace rest
  in
  { e with tags = replace e.tags }

let remove_tag key e =
  { e with tags = List.filter (fun (k, _) -> not (String.equal k key)) e.tags }

let with_name name e = { e with name }
let with_kind kind e = { e with kind }
let metaclass e = Kind.name e.kind

let equal a b =
  Id.equal a.id b.id
  && String.equal a.name b.name
  && Option.equal Id.equal a.owner b.owner
  && Kind.equal a.kind b.kind
  && List.equal String.equal a.stereotypes b.stereotypes
  && List.equal
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a.tags b.tags
