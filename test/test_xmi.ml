(* Tests for the XML substrate and the XMI import/export round trip. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let parse = Xmi.Xml_parser.parse

(* ---- xml accessors ----------------------------------------------------- *)

let xml_tests =
  let tree =
    Xmi.Xml.elem ~attrs:[ ("a", "1"); ("b", "2") ] "root"
      [
        Xmi.Xml.elem "child" [ Xmi.Xml.text "hello" ];
        Xmi.Xml.elem ~attrs:[ ("k", "v") ] "child" [];
        Xmi.Xml.elem "other" [];
      ]
  in
  [
    Alcotest.test_case "attr lookup" `Quick (fun () ->
        check cb "a" true (Xmi.Xml.attr "a" tree = Some "1");
        check cb "missing" true (Xmi.Xml.attr "z" tree = None));
    Alcotest.test_case "find_child / find_children" `Quick (fun () ->
        check ci "children named child" 2
          (List.length (Xmi.Xml.find_children "child" tree));
        check cb "first child has text" true
          (match Xmi.Xml.find_child "child" tree with
          | Some c -> Xmi.Xml.text_content c = "hello"
          | None -> false));
    Alcotest.test_case "child_elems skips text" `Quick (fun () ->
        let mixed = Xmi.Xml.elem "m" [ Xmi.Xml.text "t"; Xmi.Xml.elem "e" [] ] in
        check ci "one element" 1 (List.length (Xmi.Xml.child_elems mixed)));
    Alcotest.test_case "tag of text is None" `Quick (fun () ->
        check cb "none" true (Xmi.Xml.tag (Xmi.Xml.text "x") = None));
  ]

(* ---- xml parser -------------------------------------------------------- *)

let parser_tests =
  [
    Alcotest.test_case "attributes with both quote styles" `Quick (fun () ->
        let tree = parse "<a x=\"1\" y='2'/>" in
        check cb "x" true (Xmi.Xml.attr "x" tree = Some "1");
        check cb "y" true (Xmi.Xml.attr "y" tree = Some "2"));
    Alcotest.test_case "entities resolved" `Quick (fun () ->
        let tree = parse "<a x=\"&lt;&gt;&amp;&quot;&apos;\">&amp;text</a>" in
        check cb "attr" true (Xmi.Xml.attr "x" tree = Some "<>&\"'");
        check cs "text" "&text" (Xmi.Xml.text_content tree));
    Alcotest.test_case "character references" `Quick (fun () ->
        let tree = parse "<a>&#65;&#x42;</a>" in
        check cs "AB" "AB" (Xmi.Xml.text_content tree));
    Alcotest.test_case "character references decode to UTF-8" `Quick (fun () ->
        (* &#233; = é (2 bytes), &#x1F600; = 😀 (4 bytes): references above
           U+007F must produce UTF-8, not raw Latin-1 bytes *)
        let tree = parse "<a>&#233; &#x433; &#x20AC; &#x1F600;</a>" in
        check cs "utf8" "\xC3\xA9 \xD0\xB3 \xE2\x82\xAC \xF0\x9F\x98\x80"
          (Xmi.Xml.text_content tree);
        let tree = parse "<a x=\"caf&#xE9;\"/>" in
        check cb "attr" true (Xmi.Xml.attr "x" tree = Some "caf\xC3\xA9"));
    Alcotest.test_case "surrogate and out-of-range references rejected" `Quick
      (fun () ->
        List.iter
          (fun src ->
            check cb src true
              (try
                 ignore (parse src);
                 false
               with Xmi.Xml_parser.Xml_error _ -> true))
          [
            "<a>&#xD800;</a>";
            "<a>&#xDFFF;</a>";
            "<a>&#x110000;</a>";
            "<a>&#5000000;</a>";
          ]);
    Alcotest.test_case "CDATA preserved verbatim" `Quick (fun () ->
        let tree = parse "<a><![CDATA[1 < 2 && 3 > 2]]></a>" in
        check cs "cdata" "1 < 2 && 3 > 2" (Xmi.Xml.text_content tree));
    Alcotest.test_case "comments and prolog skipped" `Quick (fun () ->
        let tree =
          parse "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><b/></a>"
        in
        check ci "one child" 1 (List.length (Xmi.Xml.child_elems tree)));
    Alcotest.test_case "nested structure and order" `Quick (fun () ->
        let tree = parse "<a><b/><c/><b/></a>" in
        check (Alcotest.list cs) "order" [ "b"; "c"; "b" ]
          (List.filter_map Xmi.Xml.tag (Xmi.Xml.children tree)));
    Alcotest.test_case "whitespace-only text dropped" `Quick (fun () ->
        let tree = parse "<a>\n  <b/>\n</a>" in
        check ci "children" 1 (List.length (Xmi.Xml.children tree)));
    Alcotest.test_case "mismatched closing tag rejected" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (parse "<a></b>");
             false
           with Xmi.Xml_parser.Xml_error _ -> true));
    Alcotest.test_case "trailing content rejected" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (parse "<a/><b/>");
             false
           with Xmi.Xml_parser.Xml_error _ -> true));
    Alcotest.test_case "unterminated input rejected" `Quick (fun () ->
        List.iter
          (fun src ->
            check cb src true
              (try
                 ignore (parse src);
                 false
               with Xmi.Xml_parser.Xml_error _ -> true))
          [ "<a>"; "<a attr='1"; "<a><!-- never closed"; "" ]);
    Alcotest.test_case "unknown entity rejected" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (parse "<a>&nope;</a>");
             false
           with Xmi.Xml_parser.Xml_error _ -> true));
  ]

(* ---- reader errors: (input, message fragment, document offset) --------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let nested n = String.concat "" (List.init n (fun _ -> "<a>"))

let reader_error_cases =
  [
    ("<a x=\"Tel&nope;ler\"/>", "unknown entity &nope;", 9);
    ("<a><b/>x&#xD800;</a>", "&#xD800; is a surrogate", 8);
    ("<a>x&amp</a>", "unterminated entity reference", 4);
    ("<a><b c=\"1\"", "expected '>' at end of input", 11);
    ("<a><b c=\"1", "unterminated attribute value", 9);
    ("<a><!-- never", "unterminated comment", 3);
    ("<a><![CDATA[x", "unterminated CDATA section", 3);
    ("<a>text", "unexpected end of input inside <a>", 7);
    ("<a></b>", "mismatched closing tag </b> for <a>", 7);
    ("<a/><b/>", "trailing content after root element", 4);
    (nested 257, "nested deeper than 256 levels", 768);
    ("<broken", "expected '>' at end of input", 7);
  ]

let reader_error_tests =
  List.map
    (fun (src, fragment, offset) ->
      let name = if String.length src > 24 then String.sub src 0 24 ^ "..." else src in
      Alcotest.test_case name `Quick (fun () ->
          match parse src with
          | _ -> Alcotest.fail "accepted"
          | exception Xmi.Xml_parser.Xml_error (msg, pos) ->
              check cb msg true (contains msg fragment);
              check ci "offset" offset pos))
    reader_error_cases
  @ [
      Alcotest.test_case "256 levels are accepted" `Quick (fun () ->
          let src = nested 256 ^ String.concat "" (List.init 256 (fun _ -> "</a>")) in
          check cs "root" "a" (Option.get (Xmi.Xml.tag (parse src))));
      Alcotest.test_case "a million levels are rejected at the bound" `Quick
        (fun () ->
          let src = nested 1_000_000 in
          (match parse src with
          | _ -> Alcotest.fail "accepted"
          | exception Xmi.Xml_parser.Xml_error (msg, pos) ->
              check cb msg true (contains msg "nested deeper");
              check ci "offset" 768 pos);
          match Xmi.Import.parse src with
          | Error (Xmi.Import.Malformed_xml { offset; _ }) -> check ci "import offset" 768 offset
          | _ -> Alcotest.fail "import did not report the depth error");
      Alcotest.test_case "events of a small document" `Quick (fun () ->
          let r = Xmi.Xml_parser.reader "<?xml version=\"1.0\"?><a k='v'> <b/>t&amp;<![CDATA[<c>]]></a>" in
          let events = List.init 7 (fun _ -> Xmi.Xml_parser.next r) in
          check cb "events" true
            (events
            = Xmi.Xml_parser.
                [
                  Open ("a", [ ("k", "v") ]);
                  Open ("b", []);
                  Close;
                  Text "t&";
                  Text "<c>";
                  Close;
                  Eof;
                ]));
    ]

(* ---- import errors: single faults in an exported banking model ----------- *)

let replace ~all sub by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i replaced =
    if i > String.length s - n then Buffer.add_string b (String.sub s i (String.length s - i))
    else if (all || not replaced) && String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n) true
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1) replaced
    end
  in
  go 0 false;
  Buffer.contents b

(* messages as the importer has always reported them *)
let import_error_cases =
  [
    ("missing name", replace ~all:false " name=\"Account\"" "", "missing attribute name on <Class>");
    ( "malformed id",
      replace ~all:false "xmi.id=\"e2\"" "xmi.id=\"e2x\"",
      "malformed id e2x in attribute xmi.id" );
    ("unknown tag", replace ~all:false "<Parameter " "<Widget ", "unknown element tag <Widget>");
    ("missing content", replace ~all:true "XMI.content>" "XMI.contents>", "missing <XMI.content>");
    ( "two root elements",
      replace ~all:false "</Model>" "<Package xmi.id=\"e0\" name=\"x\"/></Model>",
      "expected exactly one root element, found 2" );
    ("malformed next", replace ~all:false "next=\"" "next=\"x", "malformed next counter");
  ]

let import_error_tests =
  let doc = Xmi.Export.to_string (Fixtures.banking ()) in
  List.map
    (fun (name, mutate, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          let mutated = mutate doc in
          check cb "mutated" false (String.equal mutated doc);
          match Xmi.Import.from_string mutated with
          | _ -> Alcotest.fail "accepted"
          | exception Xmi.Import.Import_error msg -> check cs "message" expected msg))
    import_error_cases
  @ [
      Alcotest.test_case "malformed XML wins over an XMI fault" `Quick (fun () ->
          match Xmi.Import.parse "<NotXmi><a></b></NotXmi>" with
          | Error (Xmi.Import.Malformed_xml { offset; message }) ->
              check ci "offset" 15 offset;
              check cb message true (contains message "mismatched")
          | _ -> Alcotest.fail "expected an XML error");
      Alcotest.test_case "the first XMI.content and Model win" `Quick (fun () ->
          let m = Fixtures.banking () in
          let doc =
            replace ~all:false "</XMI.content>"
              "</XMI.content>text<XMI.content><Widget/></XMI.content>"
              (replace ~all:false "</Model>" "</Model><Model/>" (Xmi.Export.to_string m))
          in
          check cb "equal" true (Mof.Model.equal m (Xmi.Import.from_string doc)));
      Alcotest.test_case "errors render with their kind" `Quick (fun () ->
          check cs "xml" "XML parse error at offset 7: expected '>' at end of input"
            (match Xmi.Import.parse "<broken" with
            | Error e -> Xmi.Import.error_to_string e
            | Ok _ -> "accepted");
          check cs "xmi" "XMI import: root element is not <XMI>"
            (match Xmi.Import.parse "<NotXmi/>" with
            | Error e -> Xmi.Import.error_to_string e
            | Ok _ -> "accepted"));
    ]

(* ---- datatype serialization -------------------------------------------- *)

let dtype_tests =
  [
    Alcotest.test_case "round trips" `Quick (fun () ->
        List.iter
          (fun dt ->
            check cb
              (Xmi.Dtype.to_string dt)
              true
              (Xmi.Dtype.of_string (Xmi.Dtype.to_string dt) = Some dt))
          [
            Mof.Kind.Dt_void;
            Mof.Kind.Dt_boolean;
            Mof.Kind.Dt_integer;
            Mof.Kind.Dt_real;
            Mof.Kind.Dt_string;
            Mof.Kind.Dt_ref (Mof.Id.of_int 12);
            Mof.Kind.Dt_collection Mof.Kind.Dt_string;
            Mof.Kind.Dt_collection (Mof.Kind.Dt_collection Mof.Kind.Dt_integer);
            Mof.Kind.Dt_collection (Mof.Kind.Dt_ref (Mof.Id.of_int 3));
          ]);
    Alcotest.test_case "rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s -> check cb s true (Xmi.Dtype.of_string s = None))
          [ ""; "int"; "ref:"; "ref:x"; "Set("; "Set(Integer"; "Set()" ]);
  ]

(* ---- XMI round trip ----------------------------------------------------- *)

let special_model () =
  (* a model exercising every element kind, plus text needing escapes *)
  let m = Fixtures.banking () in
  let acct = Fixtures.class_id m "Account" in
  let m = Mof.Builder.add_stereotype m acct "entity" in
  let m = Mof.Builder.set_tag m acct "note" "a < b & \"c\" 'd'" in
  let m, _ =
    Mof.Builder.add_constraint m ~owner:(Mof.Model.root m) ~name:"tricky"
      ~constrained:[ acct ]
      ~body:"self.name <> '<&>' and 1 < 2"
  in
  let m, _ =
    Mof.Builder.add_enumeration m ~owner:(Mof.Model.root m) ~name:"Currency"
      ~literals:[ "CHF"; "EUR" ]
  in
  Mof.Model.set_level_tag "PIM" m

let xmi_tests =
  [
    Alcotest.test_case "banking round trip is structurally equal" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let m' = Xmi.Import.from_string (Xmi.Export.to_string m) in
        check cb "equal" true (Mof.Model.equal m m'));
    Alcotest.test_case "special characters survive the round trip" `Quick
      (fun () ->
        let m = special_model () in
        let m' = Xmi.Import.from_string (Xmi.Export.to_string m) in
        check cb "equal" true (Mof.Model.equal m m'));
    Alcotest.test_case "refined model (stereotypes everywhere) round trips"
      `Quick (fun () ->
        let m = Fixtures.banking () in
        let gmt = Concerns.Distribution.transformation in
        let cmt =
          Transform.Cmt.specialize_exn gmt
            [
              ( "remote",
                Transform.Params.V_list
                  [ Transform.Params.V_ident "Account" ] );
            ]
        in
        match Transform.Engine.apply cmt m with
        | Ok outcome ->
            let refined = outcome.Transform.Engine.model in
            let m' = Xmi.Import.from_string (Xmi.Export.to_string refined) in
            check cb "equal" true (Mof.Model.equal refined m')
        | Error _ -> Alcotest.fail "transformation failed");
    Alcotest.test_case "fresh ids after import do not clash" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m' = Xmi.Import.from_string (Xmi.Export.to_string m) in
        let m'', id = Mof.Builder.add_class m' ~owner:(Mof.Model.root m') ~name:"New" in
        check cb "well-formed" true (Mof.Wellformed.is_wellformed m'');
        check cb "fresh id unbound before" true (not (Mof.Model.mem m' id)));
    Alcotest.test_case "import rejects a non-XMI root" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string "<NotXmi/>");
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "import rejects missing content" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string "<XMI xmi.version=\"1.2\"/>");
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "import rejects malformed element ids" `Quick (fun () ->
        let doc =
          "<XMI xmi.version=\"1.2\"><XMI.content><Model name=\"x\" \
           root=\"e0\" next=\"1\"><Package xmi.id=\"banana\" \
           name=\"x\"/></Model></XMI.content></XMI>"
        in
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string doc);
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "import rejects unknown element tags" `Quick (fun () ->
        let doc =
          "<XMI xmi.version=\"1.2\"><XMI.content><Model name=\"x\" \
           root=\"e0\" next=\"2\"><Widget xmi.id=\"e0\" \
           name=\"x\"/></Model></XMI.content></XMI>"
        in
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string doc);
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "newlines in tagged values survive" `Quick (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        let m = Mof.Builder.set_tag m acct "doc" "line one\nline two" in
        let m2 = Xmi.Import.from_string (Xmi.Export.to_string m) in
        check cb "preserved" true
          (Mof.Element.tag "doc" (Mof.Model.find_exn m2 acct)
          = Some "line one\nline two"));
    Alcotest.test_case "entity-heavy and non-ASCII content round trips" `Quick
      (fun () ->
        (* ampersands, angle brackets, both quote kinds, accents, CJK, and
           an emoji across names, stereotypes, tags, and constraint bodies;
           asserts the import∘export fixpoint, not just model equality *)
        let m = Mof.Model.create ~name:"inter&national" in
        let root = Mof.Model.root m in
        let m, cls = Mof.Builder.add_class m ~owner:root ~name:"Caf\xC3\xA9" in
        let m = Mof.Builder.add_stereotype m cls "s\xC3\xA9curis\xC3\xA9" in
        let m = Mof.Builder.set_tag m cls "note" "a < b & \"c\" 'd'" in
        let m = Mof.Builder.set_tag m cls "emoji" "\xF0\x9F\x98\x80 ok" in
        let m, _ =
          Mof.Builder.add_attribute m ~cls ~name:"gr\xC3\xB6\xC3\x9Fe"
            ~typ:Mof.Kind.Dt_real ~initial:"'\xC3\xA9'"
        in
        let m, _ =
          Mof.Builder.add_class m ~owner:root ~name:"\xE5\xBA\x97\xE7\x95\xAA"
        in
        let m, _ =
          Mof.Builder.add_constraint m ~owner:root ~name:"body&refs"
            ~constrained:[ cls ] ~body:"name <> '\xC3\xA9t\xC3\xA9' & 1 < 2"
        in
        let s1 = Xmi.Export.to_string m in
        let m2 = Xmi.Import.from_string s1 in
        let s2 = Xmi.Export.to_string m2 in
        check cs "export fixpoint" s1 s2;
        check cb "model equal" true (Mof.Model.equal m m2));
    Alcotest.test_case "export bytes are pinned" `Quick (fun () ->
        check cs "md5" "044353a99d5dd97a51c7299fa907dcd2"
          (Digest.to_hex (Digest.string (Xmi.Export.to_string (special_model ())))));
    Alcotest.test_case "file round trip" `Quick (fun () ->
        let path = Filename.temp_file "mdweave" ".xmi" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let m = special_model () in
            Xmi.Export.write_file path m;
            match Xmi.Import.read_file path with
            | Ok m' -> check cb "equal" true (Mof.Model.equal m m')
            | Error msg -> Alcotest.fail msg));
  ]

(* ---- properties --------------------------------------------------------- *)

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"XMI round trip on random models" ~count:50
        Gen.model_gen (fun m ->
          Mof.Model.equal m (Xmi.Import.from_string (Xmi.Export.to_string m)));
      QCheck2.Test.make ~name:"export is deterministic" ~count:30 Gen.model_gen
        (fun m -> String.equal (Xmi.Export.to_string m) (Xmi.Export.to_string m));
      QCheck2.Test.make ~name:"mutated exports import to a model or a typed error"
        ~count:200
        QCheck2.Gen.(triple Gen.model_gen (int_bound 1_000_000) (int_bound 255))
        (fun (m, at, byte) ->
          (* overwrite one byte, then cut the text after it half the time *)
          let s = Bytes.of_string (Xmi.Export.to_string m) in
          let at = at mod Bytes.length s in
          Bytes.set s at (Char.chr byte);
          let s = Bytes.to_string s in
          let s = if byte land 1 = 0 then s else String.sub s 0 (at + 1) in
          match Xmi.Import.parse s with Ok _ | Error _ -> true);
    ]

let () =
  Alcotest.run "xmi"
    [
      ("xml", xml_tests);
      ("xml-parser", parser_tests);
      ("read-errors", reader_error_tests);
      ("xmi-errors", import_error_tests);
      ("dtype", dtype_tests);
      ("roundtrip", xmi_tests);
      ("properties", property_tests);
    ]
