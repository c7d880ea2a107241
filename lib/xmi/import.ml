exception Import_error of string

type error =
  | Malformed_xml of { offset : int; message : string }
  | Invalid_xmi of string

let error_to_string = function
  | Malformed_xml { offset; message } ->
      Printf.sprintf "XML parse error at offset %d: %s" offset message
  | Invalid_xmi message -> "XMI import: " ^ message

let error fmt = Format.kasprintf (fun s -> raise (Import_error s)) fmt

(* ---- attributes of one start tag ---------------------------------------- *)

let rec lookup name = function
  | [] -> None
  | (key, v) :: rest -> if String.equal key name then Some v else lookup name rest

let require tag attrs name =
  match lookup name attrs with
  | Some v -> v
  | None -> error "missing attribute %s on <%s>" name tag

let id_of tag attrs name =
  let raw = require tag attrs name in
  match Mof.Id.of_string raw with
  | Some id -> id
  | None -> error "malformed id %s in attribute %s" raw name

let ids_of tag attrs name =
  let raw = require tag attrs name in
  if String.equal raw "" then []
  else
    List.map
      (fun part ->
        match Mof.Id.of_string part with
        | Some id -> id
        | None -> error "malformed id %s in attribute %s" part name)
      (String.split_on_char ' ' raw)

let bool_of tag attrs name =
  match require tag attrs name with
  | "true" -> true
  | "false" -> false
  | v -> error "malformed boolean %s in attribute %s" v name

let dtype_of tag attrs name =
  let raw = require tag attrs name in
  match Dtype.of_string raw with
  | Some dt -> dt
  | None -> error "malformed datatype %s" raw

let mult_of tag attrs name =
  let raw = require tag attrs name in
  match Mof.Kind.mult_of_string raw with
  | Some mult -> mult
  | None -> error "malformed multiplicity %s" raw

let visibility_of tag attrs =
  let raw = require tag attrs "visibility" in
  match Mof.Kind.visibility_of_string raw with
  | Some v -> v
  | None -> error "malformed visibility %s" raw

let assoc_end_of tag attrs =
  {
    Mof.Kind.end_name = require tag attrs "name";
    end_type =
      (match Mof.Id.of_string (require tag attrs "type") with
      | Some id -> id
      | None -> error "malformed association end type");
    end_mult = mult_of tag attrs "multiplicity";
    end_navigable = bool_of tag attrs "navigable";
    end_aggregation =
      (match Mof.Kind.aggregation_of_string (require tag attrs "aggregation") with
      | Some a -> a
      | None -> error "malformed aggregation");
  }

(* ---- one element, one pass over its children ---------------------------- *)

(* What an element's children contribute. Stereotype, TaggedValue,
   AssociationEnd, Literal and Constraint.body children are extensions of
   their parent; any other child element is an owned element. Lists are in
   reverse document order. *)
type children = {
  mutable stereotypes : string list;
  mutable tags : (string * string) list;
  mutable ends : Mof.Kind.assoc_end list;
  mutable literals : string list;
  mutable body : string option;  (* the first Constraint.body's text *)
  mutable owned : (string * Mof.Id.t) list;  (* tag, id *)
}

let owned_of_tag wanted c =
  List.fold_left
    (fun acc (tag, id) -> if String.equal tag wanted then id :: acc else acc)
    [] c.owned

(* The element kind from the start tag's attributes, validated before any
   child is read; the children complete it. Attributes are checked in the
   order the importer has always checked them (record fields evaluate
   right to left), so a tag missing several reports the same one. *)
let kind_of tag attrs : children -> Mof.Kind.t =
  match tag with
  | "Package" -> fun c -> Mof.Kind.Package { owned = List.rev_map snd c.owned }
  | "Class" ->
      let realizes = ids_of tag attrs "realizes" in
      let supers = ids_of tag attrs "supers" in
      let is_abstract = bool_of tag attrs "isAbstract" in
      fun c ->
        Mof.Kind.Class
          {
            is_abstract;
            attributes = owned_of_tag "Attribute" c;
            operations = owned_of_tag "Operation" c;
            supers;
            realizes;
          }
  | "Interface" -> fun c -> Mof.Kind.Interface { operations = owned_of_tag "Operation" c }
  | "Attribute" ->
      let kind =
        Mof.Kind.Attribute
          {
            attr_type = dtype_of tag attrs "type";
            attr_visibility = visibility_of tag attrs;
            attr_mult = mult_of tag attrs "multiplicity";
            is_derived = bool_of tag attrs "isDerived";
            is_static = bool_of tag attrs "isStatic";
            initial_value = lookup "initial" attrs;
          }
      in
      fun _ -> kind
  | "Operation" ->
      let is_static_op = bool_of tag attrs "isStatic" in
      let is_abstract_op = bool_of tag attrs "isAbstract" in
      let is_query = bool_of tag attrs "isQuery" in
      let op_visibility = visibility_of tag attrs in
      fun c ->
        Mof.Kind.Operation
          {
            params = owned_of_tag "Parameter" c;
            op_visibility;
            is_query;
            is_abstract_op;
            is_static_op;
          }
  | "Parameter" ->
      let kind =
        Mof.Kind.Parameter
          {
            param_type = dtype_of tag attrs "type";
            direction =
              (match Mof.Kind.direction_of_string (require tag attrs "direction") with
              | Some d -> d
              | None -> error "malformed direction");
          }
      in
      fun _ -> kind
  | "Association" -> fun c -> Mof.Kind.Association { ends = List.rev c.ends }
  | "Generalization" ->
      let kind =
        Mof.Kind.Generalization
          { child = id_of tag attrs "child"; parent = id_of tag attrs "parent" }
      in
      fun _ -> kind
  | "Dependency" ->
      let kind =
        Mof.Kind.Dependency
          { client = id_of tag attrs "client"; supplier = id_of tag attrs "supplier" }
      in
      fun _ -> kind
  | "Constraint" ->
      let language = require tag attrs "language" in
      let constrained = ids_of tag attrs "constrained" in
      fun c ->
        Mof.Kind.Constraint_
          { constrained; body = Option.value ~default:"" c.body; language }
  | "Enumeration" -> fun c -> Mof.Kind.Enumeration { literals = List.rev c.literals }
  | t -> error "unknown element tag <%s>" t

(* The text of a Constraint.body: its direct character data, concatenated;
   nested elements are skipped. *)
let body_text r =
  let rec loop acc =
    match Xml_parser.next r with
    | Xml_parser.Text s -> loop (s :: acc)
    | Xml_parser.Open _ ->
        Xml_parser.skip r;
        loop acc
    | Xml_parser.Close | Xml_parser.Eof -> String.concat "" (List.rev acc)
  in
  loop []

type walk = {
  r : Xml_parser.reader;
  mutable rank : int;  (* document-order rank of the next element *)
  mutable built : (int * Mof.Element.t) list;  (* ranked, in closing order *)
}

(* Reads the element whose start tag was just consumed, through its end
   tag, and records it and every owned descendant in [w.built]. *)
let rec element w ~owner tag attrs =
  let rank = w.rank in
  w.rank <- rank + 1;
  let id = id_of tag attrs "xmi.id" in
  let name = require tag attrs "name" in
  let kind = kind_of tag attrs in
  let c = { stereotypes = []; tags = []; ends = []; literals = []; body = None; owned = [] } in
  let rec children () =
    match Xml_parser.next w.r with
    | Xml_parser.Open (ctag, cattrs) ->
        (match ctag with
        | "Stereotype" ->
            c.stereotypes <- require ctag cattrs "name" :: c.stereotypes;
            Xml_parser.skip w.r
        | "TaggedValue" ->
            let v = require ctag cattrs "value" in
            c.tags <- (require ctag cattrs "tag", v) :: c.tags;
            Xml_parser.skip w.r
        | "AssociationEnd" ->
            if String.equal tag "Association" then c.ends <- assoc_end_of ctag cattrs :: c.ends;
            Xml_parser.skip w.r
        | "Literal" ->
            if String.equal tag "Enumeration" then
              c.literals <- require ctag cattrs "name" :: c.literals;
            Xml_parser.skip w.r
        | "Constraint.body" ->
            if String.equal tag "Constraint" && Option.is_none c.body then c.body <- Some (body_text w.r)
            else Xml_parser.skip w.r
        | _ -> c.owned <- (ctag, element w ~owner:(Some id) ctag cattrs) :: c.owned);
        children ()
    | Xml_parser.Text _ -> children ()
    | Xml_parser.Close | Xml_parser.Eof -> ()
  in
  children ();
  let e =
    Mof.Element.make ~stereotypes:(List.rev c.stereotypes) ~tags:(List.rev c.tags) ~id ~name
      ~owner (kind c)
  in
  w.built <- (rank, e) :: w.built;
  id

(* The elements in reverse document order, as [Mof.Model.of_elements] has
   always received them, so its errors name the same element. *)
let elements w =
  match w.built with
  | [] -> []
  | (_, any) :: _ ->
      let slots = Array.make w.rank any in
      List.iter (fun (rank, e) -> slots.(rank) <- e) w.built;
      Array.fold_left (fun acc e -> e :: acc) [] slots

(* ---- the envelope -------------------------------------------------------- *)

(* [f] applied to the first child element tagged [wanted], every other
   child skipped; [None] when there was none. *)
let first_child r wanted f =
  let rec loop found =
    match Xml_parser.next r with
    | Xml_parser.Open (tag, attrs) when Option.is_none found && String.equal tag wanted ->
        loop (Some (f attrs))
    | Xml_parser.Open _ ->
        Xml_parser.skip r;
        loop found
    | Xml_parser.Text _ -> loop found
    | Xml_parser.Close | Xml_parser.Eof -> found
  in
  loop None

let model w attrs =
  let root = id_of "Model" attrs "root" in
  let next =
    match int_of_string_opt (require "Model" attrs "next") with
    | Some n -> n
    | None -> error "malformed next counter"
  in
  let rec children count =
    match Xml_parser.next w.r with
    | Xml_parser.Open (tag, attrs) ->
        if count = 0 then ignore (element w ~owner:None tag attrs : Mof.Id.t)
        else Xml_parser.skip w.r;
        children (count + 1)
    | Xml_parser.Text _ -> children count
    | Xml_parser.Close | Xml_parser.Eof -> count
  in
  match children 0 with
  | 1 -> (root, next)
  | n -> error "expected exactly one root element, found %d" n

let document r =
  let w = { r; rank = 0; built = [] } in
  (match Xml_parser.next r with
  | Xml_parser.Open ("XMI", _) -> ()
  | _ -> error "root element is not <XMI>");
  let content =
    first_child r "XMI.content" (fun _ ->
        match first_child r "Model" (model w) with
        | Some header -> header
        | None -> error "missing <Model>")
  in
  let root, next =
    match content with Some header -> header | None -> error "missing <XMI.content>"
  in
  (* Eof, or the error for what trails the root element *)
  ignore (Xml_parser.next r : Xml_parser.event);
  match Mof.Model.of_elements ~root ~next (elements w) with
  | m -> m
  | exception Invalid_argument msg -> error "%s" msg

let parse s =
  Obs.span ~cat:"xmi" "xmi.import"
    ~args:[ ("bytes", Obs.Event.V_int (String.length s)) ]
  @@ fun () ->
  Obs.incr "xmi.imports" [];
  let r = Xml_parser.reader s in
  match document r with
  | m -> Ok m
  | exception Xml_parser.Xml_error (message, offset) -> Error (Malformed_xml { offset; message })
  | exception Import_error message -> (
      (* a document that is not well formed is reported as such, whatever
         else is wrong with it *)
      let rec drain () =
        match Xml_parser.next r with Xml_parser.Eof -> () | _ -> drain ()
      in
      match drain () with
      | () -> Error (Invalid_xmi message)
      | exception Xml_parser.Xml_error (message, offset) ->
          Error (Malformed_xml { offset; message }))

let from_string s =
  match parse s with
  | Ok m -> m
  | Error (Malformed_xml { offset; message }) -> raise (Xml_parser.Xml_error (message, offset))
  | Error (Invalid_xmi message) -> raise (Import_error message)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Result.map_error error_to_string (parse text)
  | exception Sys_error msg -> Error msg
