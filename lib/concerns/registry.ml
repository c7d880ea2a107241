type entry = {
  concern : Concern.t;
  gmt : Transform.Gmt.t;
  gac : Aspects.Generic.t;
}

let builtins =
  [
    {
      concern = Distribution.concern;
      gmt = Distribution.transformation;
      gac = Distribution.generic_aspect;
    };
    {
      concern = Transactions.concern;
      gmt = Transactions.transformation;
      gac = Transactions.generic_aspect;
    };
    {
      concern = Security.concern;
      gmt = Security.transformation;
      gac = Security.generic_aspect;
    };
    {
      concern = Concurrency.concern;
      gmt = Concurrency.transformation;
      gac = Concurrency.generic_aspect;
    };
    {
      concern = Logging.concern;
      gmt = Logging.transformation;
      gac = Logging.generic_aspect;
    };
    {
      concern = Persistence.concern;
      gmt = Persistence.transformation;
      gac = Persistence.generic_aspect;
    };
    {
      concern = Messaging.concern;
      gmt = Messaging.transformation;
      gac = Messaging.generic_aspect;
    };
    {
      concern = Platform.concern;
      gmt = Platform.transformation;
      gac = Platform.generic_aspect;
    };
  ]

let registered : entry list ref = ref []

let all () = builtins @ List.rev !registered

(* [register] refuses a key already taken, so at most one entry of the two
   lists has [key]: searching them in turn answers as [all ()] would,
   without copying the builtins. *)
let find key =
  let has_key e = String.equal e.concern.Concern.key key in
  match List.find_opt has_key builtins with
  | Some _ as e -> e
  | None -> List.find_opt has_key !registered

let find_gmt key = Option.map (fun e -> e.gmt) (find key)
let find_gac key = Option.map (fun e -> e.gac) (find key)

let same_formals (a : Transform.Params.decl list) (b : Transform.Params.decl list)
    =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Transform.Params.decl) (y : Transform.Params.decl) ->
         String.equal x.Transform.Params.pname y.Transform.Params.pname
         && x.Transform.Params.ptype = y.Transform.Params.ptype)
       a b

let register entry =
  let key = entry.concern.Concern.key in
  let diags =
    (if find key <> None then [ Printf.sprintf "concern %s already registered" key ]
     else [])
    @ (if not (String.equal entry.gmt.Transform.Gmt.concern key) then
         [
           Printf.sprintf "transformation %s declares concern %s, entry says %s"
             entry.gmt.Transform.Gmt.name entry.gmt.Transform.Gmt.concern key;
         ]
       else [])
    @ (if not (String.equal entry.gac.Aspects.Generic.concern key) then
         [
           Printf.sprintf "generic aspect %s declares concern %s, entry says %s"
             entry.gac.Aspects.Generic.ga_name entry.gac.Aspects.Generic.concern
             key;
         ]
       else [])
    @ (if
         not
           (same_formals entry.gmt.Transform.Gmt.formals
              entry.gac.Aspects.Generic.formals)
       then
         [
           Printf.sprintf
             "transformation and aspect for %s declare different formal \
              parameters — the paper requires one parameter set to \
              specialize both"
             key;
         ]
       else [])
    @ Transform.Gmt.validate_conditions entry.gmt
  in
  match diags with
  | [] ->
      registered := entry :: !registered;
      Ok ()
  | _ -> Error diags

let reset () = registered := []
