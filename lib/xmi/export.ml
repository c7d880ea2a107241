(* The document is written straight into one buffer, two spaces of indent
   per level: an element without children closes with [/>], one whose only
   child is text keeps it inline, and any other element puts each child on
   its own line. *)

(* [s] from [start], escaped for an attribute value or for character data;
   runs that need no escape are copied whole. *)
let rec add_escaped_from ~in_attr buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let entity =
      match String.unsafe_get s i with
      | '&' -> "&amp;"
      | '<' -> "&lt;"
      | '>' -> "&gt;"
      | '"' when in_attr -> "&quot;"
      | '\'' when in_attr -> "&apos;"
      | _ -> ""
    in
    if String.length entity = 0 then add_escaped_from ~in_attr buf s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      Buffer.add_string buf entity;
      add_escaped_from ~in_attr buf s (i + 1) (i + 1)
    end

let add_escaped ~in_attr buf s = add_escaped_from ~in_attr buf s 0 0

let indent buf depth =
  for _ = 1 to depth do
    Buffer.add_string buf "  "
  done

let attr buf key v =
  Buffer.add_char buf ' ';
  Buffer.add_string buf key;
  Buffer.add_string buf "=\"";
  add_escaped ~in_attr:true buf v;
  Buffer.add_char buf '"'

(* Ids render as [e<n>], which needs no escaping. *)
let add_id buf id =
  Buffer.add_char buf 'e';
  Buffer.add_string buf (string_of_int (Mof.Id.to_int id))

let id_attr buf key id =
  Buffer.add_char buf ' ';
  Buffer.add_string buf key;
  Buffer.add_string buf "=\"";
  add_id buf id;
  Buffer.add_char buf '"'

let ids_attr buf key ids =
  Buffer.add_char buf ' ';
  Buffer.add_string buf key;
  Buffer.add_string buf "=\"";
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ' ';
      add_id buf id)
    ids;
  Buffer.add_char buf '"'

let bool_attr buf key b = attr buf key (if b then "true" else "false")

let start_tag buf depth tag =
  indent buf depth;
  Buffer.add_char buf '<';
  Buffer.add_string buf tag

let end_tag buf depth tag =
  indent buf depth;
  Buffer.add_string buf "</";
  Buffer.add_string buf tag;
  Buffer.add_string buf ">\n"

(* Ends a start tag whose attributes are written: [children] writes the
   child lines, and [has_children] says whether it writes any. *)
let body buf depth tag ~has_children children =
  if has_children then begin
    Buffer.add_string buf ">\n";
    children ();
    end_tag buf depth tag
  end
  else Buffer.add_string buf "/>\n"

let leaf buf depth tag attrs =
  start_tag buf depth tag;
  attrs ();
  Buffer.add_string buf "/>\n"

let rec element buf m depth (e : Mof.Element.t) =
  let inner = depth + 1 in
  let open_ tag =
    start_tag buf depth tag;
    id_attr buf "xmi.id" e.id;
    attr buf "name" e.name
  in
  (* Stereotype and tagged-value children, shared by every element kind,
     come before the kind's own children. *)
  let close tag ~has_more more =
    body buf depth tag
      ~has_children:(e.stereotypes <> [] || e.tags <> [] || has_more)
      (fun () ->
        List.iter (fun s -> leaf buf inner "Stereotype" (fun () -> attr buf "name" s)) e.stereotypes;
        List.iter
          (fun (k, v) ->
            leaf buf inner "TaggedValue" (fun () ->
                attr buf "tag" k;
                attr buf "value" v))
          e.tags;
        more ())
  in
  let nested ids () = List.iter (fun c -> element buf m inner (Mof.Model.find_exn m c)) ids in
  let nothing () = () in
  match e.kind with
  | Mof.Kind.Package { owned } ->
      open_ "Package";
      close "Package" ~has_more:(owned <> []) (nested owned)
  | Mof.Kind.Class c ->
      open_ "Class";
      bool_attr buf "isAbstract" c.is_abstract;
      ids_attr buf "supers" c.supers;
      ids_attr buf "realizes" c.realizes;
      close "Class"
        ~has_more:(c.attributes <> [] || c.operations <> [])
        (fun () ->
          nested c.attributes ();
          nested c.operations ())
  | Mof.Kind.Interface { operations } ->
      open_ "Interface";
      close "Interface" ~has_more:(operations <> []) (nested operations)
  | Mof.Kind.Attribute a ->
      open_ "Attribute";
      attr buf "type" (Dtype.to_string a.attr_type);
      attr buf "visibility" (Mof.Kind.visibility_to_string a.attr_visibility);
      attr buf "multiplicity" (Mof.Kind.mult_to_string a.attr_mult);
      bool_attr buf "isDerived" a.is_derived;
      bool_attr buf "isStatic" a.is_static;
      Option.iter (attr buf "initial") a.initial_value;
      close "Attribute" ~has_more:false nothing
  | Mof.Kind.Operation o ->
      open_ "Operation";
      attr buf "visibility" (Mof.Kind.visibility_to_string o.op_visibility);
      bool_attr buf "isQuery" o.is_query;
      bool_attr buf "isAbstract" o.is_abstract_op;
      bool_attr buf "isStatic" o.is_static_op;
      close "Operation" ~has_more:(o.params <> []) (nested o.params)
  | Mof.Kind.Parameter p ->
      open_ "Parameter";
      attr buf "type" (Dtype.to_string p.param_type);
      attr buf "direction" (Mof.Kind.direction_to_string p.direction);
      close "Parameter" ~has_more:false nothing
  | Mof.Kind.Association { ends } ->
      open_ "Association";
      close "Association" ~has_more:(ends <> []) (fun () ->
          List.iter
            (fun (en : Mof.Kind.assoc_end) ->
              leaf buf inner "AssociationEnd" (fun () ->
                  attr buf "name" en.end_name;
                  id_attr buf "type" en.end_type;
                  attr buf "multiplicity" (Mof.Kind.mult_to_string en.end_mult);
                  bool_attr buf "navigable" en.end_navigable;
                  attr buf "aggregation" (Mof.Kind.aggregation_to_string en.end_aggregation)))
            ends)
  | Mof.Kind.Generalization { child; parent } ->
      open_ "Generalization";
      id_attr buf "child" child;
      id_attr buf "parent" parent;
      close "Generalization" ~has_more:false nothing
  | Mof.Kind.Dependency { client; supplier } ->
      open_ "Dependency";
      id_attr buf "client" client;
      id_attr buf "supplier" supplier;
      close "Dependency" ~has_more:false nothing
  | Mof.Kind.Constraint_ { constrained; body; language } ->
      open_ "Constraint";
      attr buf "language" language;
      ids_attr buf "constrained" constrained;
      close "Constraint" ~has_more:true (fun () ->
          start_tag buf inner "Constraint.body";
          Buffer.add_char buf '>';
          add_escaped ~in_attr:false buf body;
          Buffer.add_string buf "</Constraint.body>\n")
  | Mof.Kind.Enumeration { literals } ->
      open_ "Enumeration";
      close "Enumeration" ~has_more:(literals <> []) (fun () ->
          List.iter (fun lit -> leaf buf inner "Literal" (fun () -> attr buf "name" lit)) literals)

(* About 120 bytes per element in practice; the buffer grows if needed. *)
let bytes_per_element = 128

let to_string m =
  Obs.span ~cat:"xmi" "xmi.export"
    ~args:[ ("model", Obs.Event.V_string (Mof.Model.name m)) ]
  @@ fun () ->
  if Obs.enabled () then
    Obs.event ~cat:"xmi" "xmi.export.model"
      ~args:[ ("elements", Obs.Event.V_int (Mof.Model.size m)) ];
  Obs.incr "xmi.exports" [];
  let buf = Buffer.create (512 + (bytes_per_element * Mof.Model.size m)) in
  let root = Mof.Model.root m in
  Buffer.add_string buf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <XMI xmi.version=\"1.2\">\n\
    \  <XMI.header>\n\
    \    <XMI.documentation>\n\
    \      <XMI.exporter name=\"mdweave\"/>\n\
    \    </XMI.documentation>\n\
    \  </XMI.header>\n\
    \  <XMI.content>\n";
  start_tag buf 2 "Model";
  attr buf "name" (Mof.Model.name m);
  id_attr buf "root" root;
  (* the model's own counter already exceeds every bound id *)
  attr buf "next" (string_of_int (Mof.Model.next m));
  Buffer.add_string buf ">\n";
  element buf m 3 (Mof.Model.find_exn m root);
  Buffer.add_string buf "    </Model>\n  </XMI.content>\n</XMI>\n";
  Buffer.contents buf

let write_file path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))
