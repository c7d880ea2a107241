(* Canonical element codec. One rendering per element value: field order is
   declaration order, ints are unsigned LEB128, strings length-prefixed,
   kind constructors carry fixed tag bytes. Changing any tag or field order
   is a snapshot-format break — the repository fixpoint test will catch it,
   but old snapshots will not load; bump the snapshot magic when you must. *)

exception Corrupt of string

(* ---- writer primitives --------------------------------------------------- *)

let w_int b n =
  if n < 0 then invalid_arg "Mof.Canon.w_int: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let w_opt w b = function
  | None -> Buffer.add_char b '\000'
  | Some v ->
      Buffer.add_char b '\001';
      w b v

let w_list w b l =
  w_int b (List.length l);
  List.iter (w b) l

let w_id b id = w_int b (Id.to_int id)

(* ---- reader primitives --------------------------------------------------- *)

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }
let pos r = r.pos
let at_end r = r.pos >= String.length r.src

let byte r =
  if r.pos >= String.length r.src then raise (Corrupt "truncated input");
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_int r =
  let rec go shift acc =
    if shift > 56 then raise (Corrupt "varint too wide");
    let b = byte r in
    (* a ninth byte carries bits 56-62, and bit 62 is OCaml's sign bit *)
    if shift = 56 && b land 0x40 <> 0 then
      raise (Corrupt "varint out of the non-negative int range");
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let r_bytes r n =
  if n < 0 || r.pos + n > String.length r.src then
    raise (Corrupt "truncated bytes");
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_str r = r_bytes r (r_int r)

let r_bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Corrupt (Printf.sprintf "bad bool byte %d" n))

let r_opt rd r =
  match byte r with
  | 0 -> None
  | 1 -> Some (rd r)
  | n -> raise (Corrupt (Printf.sprintf "bad option byte %d" n))

let r_list rd r =
  let n = r_int r in
  List.init n (fun _ -> rd r)

let r_id r = Id.of_int (r_int r)

(* ---- enums --------------------------------------------------------------- *)

let visibility_tag = function
  | Kind.Public -> 0
  | Kind.Private -> 1
  | Kind.Protected -> 2
  | Kind.Package_level -> 3

let visibility_of_tag = function
  | 0 -> Kind.Public
  | 1 -> Kind.Private
  | 2 -> Kind.Protected
  | 3 -> Kind.Package_level
  | n -> raise (Corrupt (Printf.sprintf "bad visibility tag %d" n))

let direction_tag = function
  | Kind.Dir_in -> 0
  | Kind.Dir_out -> 1
  | Kind.Dir_inout -> 2
  | Kind.Dir_return -> 3

let direction_of_tag = function
  | 0 -> Kind.Dir_in
  | 1 -> Kind.Dir_out
  | 2 -> Kind.Dir_inout
  | 3 -> Kind.Dir_return
  | n -> raise (Corrupt (Printf.sprintf "bad direction tag %d" n))

let aggregation_tag = function
  | Kind.Ag_none -> 0
  | Kind.Ag_shared -> 1
  | Kind.Ag_composite -> 2

let aggregation_of_tag = function
  | 0 -> Kind.Ag_none
  | 1 -> Kind.Ag_shared
  | 2 -> Kind.Ag_composite
  | n -> raise (Corrupt (Printf.sprintf "bad aggregation tag %d" n))

let w_mult b (m : Kind.multiplicity) =
  w_int b m.Kind.lower;
  w_opt w_int b m.Kind.upper

let r_mult r =
  let lower = r_int r in
  let upper = r_opt r_int r in
  { Kind.lower; upper }

let rec w_datatype b = function
  | Kind.Dt_void -> w_int b 0
  | Kind.Dt_boolean -> w_int b 1
  | Kind.Dt_integer -> w_int b 2
  | Kind.Dt_real -> w_int b 3
  | Kind.Dt_string -> w_int b 4
  | Kind.Dt_ref id ->
      w_int b 5;
      w_id b id
  | Kind.Dt_collection dt ->
      w_int b 6;
      w_datatype b dt

let rec r_datatype r =
  match r_int r with
  | 0 -> Kind.Dt_void
  | 1 -> Kind.Dt_boolean
  | 2 -> Kind.Dt_integer
  | 3 -> Kind.Dt_real
  | 4 -> Kind.Dt_string
  | 5 -> Kind.Dt_ref (r_id r)
  | 6 -> Kind.Dt_collection (r_datatype r)
  | n -> raise (Corrupt (Printf.sprintf "bad datatype tag %d" n))

(* ---- kinds --------------------------------------------------------------- *)

let w_assoc_end b (e : Kind.assoc_end) =
  w_str b e.Kind.end_name;
  w_id b e.Kind.end_type;
  w_mult b e.Kind.end_mult;
  w_bool b e.Kind.end_navigable;
  w_int b (aggregation_tag e.Kind.end_aggregation)

let r_assoc_end r =
  let end_name = r_str r in
  let end_type = r_id r in
  let end_mult = r_mult r in
  let end_navigable = r_bool r in
  let end_aggregation = aggregation_of_tag (r_int r) in
  { Kind.end_name; end_type; end_mult; end_navigable; end_aggregation }

let w_kind b = function
  | Kind.Package { owned } ->
      w_int b 0;
      w_list w_id b owned
  | Kind.Class p ->
      w_int b 1;
      w_bool b p.Kind.is_abstract;
      w_list w_id b p.Kind.attributes;
      w_list w_id b p.Kind.operations;
      w_list w_id b p.Kind.supers;
      w_list w_id b p.Kind.realizes
  | Kind.Interface { operations } ->
      w_int b 2;
      w_list w_id b operations
  | Kind.Attribute
      { attr_type; attr_visibility; attr_mult; is_derived; is_static; initial_value }
    ->
      w_int b 3;
      w_datatype b attr_type;
      w_int b (visibility_tag attr_visibility);
      w_mult b attr_mult;
      w_bool b is_derived;
      w_bool b is_static;
      w_opt w_str b initial_value
  | Kind.Operation { params; op_visibility; is_query; is_abstract_op; is_static_op }
    ->
      w_int b 4;
      w_list w_id b params;
      w_int b (visibility_tag op_visibility);
      w_bool b is_query;
      w_bool b is_abstract_op;
      w_bool b is_static_op
  | Kind.Parameter { param_type; direction } ->
      w_int b 5;
      w_datatype b param_type;
      w_int b (direction_tag direction)
  | Kind.Association { ends } ->
      w_int b 6;
      w_list w_assoc_end b ends
  | Kind.Generalization { child; parent } ->
      w_int b 7;
      w_id b child;
      w_id b parent
  | Kind.Dependency { client; supplier } ->
      w_int b 8;
      w_id b client;
      w_id b supplier
  | Kind.Constraint_ { constrained; body; language } ->
      w_int b 9;
      w_list w_id b constrained;
      w_str b body;
      w_str b language
  | Kind.Enumeration { literals } ->
      w_int b 10;
      w_list w_str b literals

let r_kind r =
  match r_int r with
  | 0 -> Kind.Package { owned = r_list r_id r }
  | 1 ->
      let is_abstract = r_bool r in
      let attributes = r_list r_id r in
      let operations = r_list r_id r in
      let supers = r_list r_id r in
      let realizes = r_list r_id r in
      Kind.Class { is_abstract; attributes; operations; supers; realizes }
  | 2 -> Kind.Interface { operations = r_list r_id r }
  | 3 ->
      let attr_type = r_datatype r in
      let attr_visibility = visibility_of_tag (r_int r) in
      let attr_mult = r_mult r in
      let is_derived = r_bool r in
      let is_static = r_bool r in
      let initial_value = r_opt r_str r in
      Kind.Attribute
        { attr_type; attr_visibility; attr_mult; is_derived; is_static; initial_value }
  | 4 ->
      let params = r_list r_id r in
      let op_visibility = visibility_of_tag (r_int r) in
      let is_query = r_bool r in
      let is_abstract_op = r_bool r in
      let is_static_op = r_bool r in
      Kind.Operation { params; op_visibility; is_query; is_abstract_op; is_static_op }
  | 5 ->
      let param_type = r_datatype r in
      let direction = direction_of_tag (r_int r) in
      Kind.Parameter { param_type; direction }
  | 6 -> Kind.Association { ends = r_list r_assoc_end r }
  | 7 ->
      let child = r_id r in
      let parent = r_id r in
      Kind.Generalization { child; parent }
  | 8 ->
      let client = r_id r in
      let supplier = r_id r in
      Kind.Dependency { client; supplier }
  | 9 ->
      let constrained = r_list r_id r in
      let body = r_str r in
      let language = r_str r in
      Kind.Constraint_ { constrained; body; language }
  | 10 -> Kind.Enumeration { literals = r_list r_str r }
  | n -> raise (Corrupt (Printf.sprintf "bad kind tag %d" n))

(* ---- elements ------------------------------------------------------------ *)

let w_pair b (k, v) =
  w_str b k;
  w_str b v

let r_pair r =
  let k = r_str r in
  let v = r_str r in
  (k, v)

let write_element b (e : Element.t) =
  w_id b e.Element.id;
  w_str b e.Element.name;
  w_opt w_id b e.Element.owner;
  w_kind b e.Element.kind;
  w_list w_str b e.Element.stereotypes;
  w_list w_pair b e.Element.tags

let read_element r =
  let id = r_id r in
  let name = r_str r in
  let owner = r_opt r_id r in
  let kind = r_kind r in
  let stereotypes = r_list r_str r in
  let tags = r_list r_pair r in
  Element.make ~stereotypes ~tags ~id ~name ~owner kind

let element_bytes e =
  let b = Buffer.create 64 in
  write_element b e;
  Buffer.contents b

let digest_size = 16
let digest_hex = Digest.to_hex
