(* Tests for the OCL subset: lexer, parser, values, evaluator, constraints,
   typechecker. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let empty_model = Mof.Model.create ~name:"empty"

let eval ?(m = empty_model) ?(env = Ocl.Env.empty) src =
  Ocl.Eval.eval_string m env src

let eval_s ?m ?env src = Ocl.Value.to_string (eval ?m ?env src)

let expect_eval ?m ?env expected src =
  check cs src expected (eval_s ?m ?env src)

let expect_error ?(m = empty_model) src =
  check cb src true
    (try
       ignore (Ocl.Eval.eval_string m Ocl.Env.empty src);
       false
     with Ocl.Eval.Eval_error _ -> true)

(* ---- lexer ------------------------------------------------------------ *)

let lexer_tests =
  let token_strings src =
    List.map
      (fun (t : Ocl.Token.located) -> Ocl.Token.to_string t.Ocl.Token.token)
      (Ocl.Lexer.tokenize src)
  in
  [
    Alcotest.test_case "operators and punctuation" `Quick (fun () ->
        check (Alcotest.list cs) "ops"
          [ "->"; "."; "<>"; "<="; ">="; "<"; ">"; "="; "|"; "<eof>" ]
          (token_strings "-> . <> <= >= < > = |"));
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        check (Alcotest.list cs) "comment"
          [ "1"; "2"; "<eof>" ]
          (token_strings "1 -- a comment\n2"));
    Alcotest.test_case "string literal with escaped quote" `Quick (fun () ->
        match Ocl.Lexer.tokenize "'it''s'" with
        | [ { Ocl.Token.token = Ocl.Token.String s; _ }; _ ] ->
            check cs "contents" "it's" s
        | _ -> Alcotest.fail "unexpected token stream");
    Alcotest.test_case "numbers" `Quick (fun () ->
        check (Alcotest.list cs) "ints and reals"
          [ "42"; "3.5"; "<eof>" ]
          (token_strings "42 3.5"));
    Alcotest.test_case "minus is its own token" `Quick (fun () ->
        check (Alcotest.list cs) "minus" [ "-"; "7"; "<eof>" ] (token_strings "-7"));
    Alcotest.test_case "keywords recognized" `Quick (fun () ->
        check (Alcotest.list cs) "kw"
          [ "if"; "then"; "else"; "endif"; "and"; "not"; "implies"; "<eof>" ]
          (token_strings "if then else endif and not implies"));
    Alcotest.test_case "unterminated string raises" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (Ocl.Lexer.tokenize "'oops");
             false
           with Ocl.Lexer.Lexical_error _ -> true));
    Alcotest.test_case "unexpected character raises" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (Ocl.Lexer.tokenize "a # b");
             false
           with Ocl.Lexer.Lexical_error _ -> true));
    Alcotest.test_case "a parameter reference is one identifier" `Quick
      (fun () ->
        check (Alcotest.list cs) "tokens"
          [ "$names$"; "->"; "notEmpty"; "("; ")"; "<eof>" ]
          (token_strings "$names$->notEmpty()");
        List.iter
          (fun src ->
            check cb src true
              (try
                 ignore (Ocl.Lexer.tokenize src);
                 false
               with Ocl.Lexer.Lexical_error _ -> true))
          [ "$p"; "$$"; "$1$"; "a$b"; "$a b$"; "$" ]);
    Alcotest.test_case "positions recorded" `Quick (fun () ->
        match Ocl.Lexer.tokenize "ab cd" with
        | [ a; b; _eof ] ->
            check ci "first" 0 a.Ocl.Token.pos;
            check ci "second" 3 b.Ocl.Token.pos
        | _ -> Alcotest.fail "unexpected token stream");
  ]

(* ---- parser ----------------------------------------------------------- *)

let parses src = match Ocl.Parser.parse_opt src with Ok _ -> true | Error _ -> false

let parser_tests =
  [
    Alcotest.test_case "arithmetic precedence" `Quick (fun () ->
        check cs "mul binds tighter" "(1 + (2 * 3))"
          (Ocl.Ast.to_string (Ocl.Parser.parse "1 + 2 * 3")));
    Alcotest.test_case "boolean precedence" `Quick (fun () ->
        check cs "and over or" "(true or (false and true))"
          (Ocl.Ast.to_string (Ocl.Parser.parse "true or false and true")));
    Alcotest.test_case "implies is right-associative" `Quick (fun () ->
        check cs "implies" "(true implies (false implies true))"
          (Ocl.Ast.to_string (Ocl.Parser.parse "true implies false implies true")));
    Alcotest.test_case "relational below additive" `Quick (fun () ->
        check cs "rel" "((1 + 2) < (3 * 4))"
          (Ocl.Ast.to_string (Ocl.Parser.parse "1 + 2 < 3 * 4")));
    Alcotest.test_case "navigation chains" `Quick (fun () ->
        check cs "nav" "self.a.b" (Ocl.Ast.to_string (Ocl.Parser.parse "self.a.b")));
    Alcotest.test_case "iterators parse" `Quick (fun () ->
        check cb "forAll" true (parses "Set{1,2}->forAll(x | x > 0)");
        check cb "forAll2" true (parses "Set{1,2}->forAll(x, y | x = y)");
        check cb "typed var" true (parses "Set{1,2}->select(x : Integer | x > 1)");
        check cb "iterate" true
          (parses "Sequence{1,2,3}->iterate(x; acc : Integer = 0 | acc + x)"));
    Alcotest.test_case "collection literals" `Quick (fun () ->
        check cb "set" true (parses "Set{1, 2, 3}");
        check cb "empty sequence" true (parses "Sequence{}");
        check cb "bag" true (parses "Bag{1, 1}"));
    Alcotest.test_case "let and if" `Quick (fun () ->
        check cb "let" true (parses "let x = 4 in x + 1");
        check cb "let typed" true (parses "let x : Integer = 4 in x");
        check cb "if" true (parses "if true then 1 else 2 endif"));
    Alcotest.test_case "collection op without pipe is not an iterator" `Quick
      (fun () ->
        match Ocl.Parser.parse "Set{1}->includes(1)" with
        | Ocl.Ast.E_coll_op (_, "includes", [ _ ]) -> ()
        | _ -> Alcotest.fail "expected E_coll_op");
    Alcotest.test_case "pipe makes an iterator" `Quick (fun () ->
        match Ocl.Parser.parse "Set{1}->select(x | x > 0)" with
        | Ocl.Ast.E_iter (_, "select", [ "x" ], _) -> ()
        | _ -> Alcotest.fail "expected E_iter");
    Alcotest.test_case "nested pipe does not confuse the lookahead" `Quick
      (fun () ->
        match Ocl.Parser.parse "Set{Set{1}}->includes(Set{1}->select(x | x > 0))" with
        | Ocl.Ast.E_coll_op (_, "includes", [ Ocl.Ast.E_iter _ ]) -> ()
        | _ -> Alcotest.fail "expected coll_op around iter");
    Alcotest.test_case "trailing input is an error" `Quick (fun () ->
        check cb "trailing" false (parses "1 + 2 extra"));
    Alcotest.test_case "incomplete input is an error" `Quick (fun () ->
        check cb "dangling plus" false (parses "1 + ");
        check cb "unclosed paren" false (parses "(1 + 2");
        check cb "missing endif" false (parses "if true then 1 else 2"));
    Alcotest.test_case "re-parse of rendering is stable" `Quick (fun () ->
        List.iter
          (fun src ->
            let once = Ocl.Ast.to_string (Ocl.Parser.parse src) in
            let twice = Ocl.Ast.to_string (Ocl.Parser.parse once) in
            check cs src once twice)
          [
            "1 + 2 * 3 - 4 / 5";
            "Set{1,2}->forAll(x | x > 0 and x < 10)";
            "if 1 > 2 then 1 else 2 endif";
            "let x = Sequence{1}->first() in x.oclIsUndefined()";
            "'a'.concat('x').size()";
            "Sequence{1}->iterate(x; acc = 0 | acc + x)";
          ]);
    Alcotest.test_case "fold_vars sees bound and free variables" `Quick
      (fun () ->
        let e = Ocl.Parser.parse "Set{1}->forAll(x | x > y)" in
        let vars = List.rev (Ocl.Ast.fold_vars (fun v acc -> v :: acc) e []) in
        check (Alcotest.list cs) "vars" [ "x"; "x"; "y" ] vars);
  ]

(* ---- values ----------------------------------------------------------- *)

let value_tests =
  [
    Alcotest.test_case "integer/real equality" `Quick (fun () ->
        check cb "1 = 1.0" true
          (Ocl.Value.equal (Ocl.Value.V_int 1) (Ocl.Value.V_real 1.0));
        check cb "1 <> 1.5" false
          (Ocl.Value.equal (Ocl.Value.V_int 1) (Ocl.Value.V_real 1.5)));
    Alcotest.test_case "set canonicalization" `Quick (fun () ->
        match Ocl.Value.set [ Ocl.Value.V_int 3; Ocl.Value.V_int 1; Ocl.Value.V_int 3 ] with
        | Ocl.Value.V_set [ Ocl.Value.V_int 1; Ocl.Value.V_int 3 ] -> ()
        | v -> Alcotest.fail (Ocl.Value.to_string v));
    Alcotest.test_case "bag keeps duplicates sorted" `Quick (fun () ->
        match
          Ocl.Value.bag [ Ocl.Value.V_int 2; Ocl.Value.V_int 1; Ocl.Value.V_int 2 ]
        with
        | Ocl.Value.V_bag [ Ocl.Value.V_int 1; Ocl.Value.V_int 2; Ocl.Value.V_int 2 ] ->
            ()
        | v -> Alcotest.fail (Ocl.Value.to_string v));
    Alcotest.test_case "set deduplicates across int/real" `Quick (fun () ->
        match Ocl.Value.set [ Ocl.Value.V_int 1; Ocl.Value.V_real 1.0 ] with
        | Ocl.Value.V_set [ _ ] -> ()
        | v -> Alcotest.fail (Ocl.Value.to_string v));
    Alcotest.test_case "type names" `Quick (fun () ->
        check cs "int" "Integer" (Ocl.Value.type_name (Ocl.Value.V_int 1));
        check cs "undef" "OclUndefined" (Ocl.Value.type_name Ocl.Value.V_undefined));
  ]

(* ---- evaluator: scalars ------------------------------------------------ *)

let arithmetic_tests =
  [
    Alcotest.test_case "integer arithmetic" `Quick (fun () ->
        expect_eval "7" "1 + 2 * 3";
        expect_eval "-1" "2 - 3";
        expect_eval "2" "7 div 3";
        expect_eval "1" "7 mod 3";
        expect_eval "-5" "-5");
    Alcotest.test_case "mixed arithmetic promotes to real" `Quick (fun () ->
        expect_eval "3.5" "1 + 2.5";
        expect_eval "5" "2.0 + 3.0");
    Alcotest.test_case "division always real" `Quick (fun () ->
        expect_eval "2.5" "5 / 2");
    Alcotest.test_case "division by zero is undefined" `Quick (fun () ->
        expect_eval "OclUndefined" "3 / 0";
        expect_eval "OclUndefined" "3 div 0";
        expect_eval "OclUndefined" "3 mod 0");
    Alcotest.test_case "numeric methods" `Quick (fun () ->
        expect_eval "5" "(-5).abs()";
        expect_eval "2" "2.9.floor()";
        expect_eval "3" "2.9.round()";
        expect_eval "7" "3.max(7)";
        expect_eval "3" "3.min(7)");
    Alcotest.test_case "comparisons" `Quick (fun () ->
        expect_eval "true" "1 < 2";
        expect_eval "true" "2.0 >= 2";
        expect_eval "true" "'abc' < 'abd'";
        expect_eval "false" "'b' <= 'a'");
    Alcotest.test_case "div/mod require integers" `Quick (fun () ->
        expect_error "2.5 div 1";
        expect_error "2.5 mod 1");
  ]

let string_tests =
  [
    Alcotest.test_case "size/concat/case" `Quick (fun () ->
        expect_eval "3" "'abc'.size()";
        expect_eval "'abcd'" "'ab'.concat('cd')";
        expect_eval "'ABC'" "'abc'.toUpper()";
        expect_eval "'abc'" "'ABC'.toLower()";
        expect_eval "'ab'" "'a' + 'b'");
    Alcotest.test_case "substring is 1-based inclusive" `Quick (fun () ->
        expect_eval "'ell'" "'hello'.substring(2, 4)";
        expect_eval "'h'" "'hello'.substring(1, 1)";
        expect_eval "OclUndefined" "'hello'.substring(0, 2)";
        expect_eval "OclUndefined" "'hello'.substring(2, 9)";
        expect_eval "''" "'hello'.substring(3, 2)");
    Alcotest.test_case "contains/startsWith/endsWith" `Quick (fun () ->
        expect_eval "true" "'hello'.contains('ell')";
        expect_eval "false" "'hello'.contains('xyz')";
        expect_eval "true" "'hello'.startsWith('he')";
        expect_eval "true" "'hello'.endsWith('lo')";
        expect_eval "false" "'hello'.startsWith('lo')");
    Alcotest.test_case "conversions" `Quick (fun () ->
        expect_eval "42" "'42'.toInteger()";
        expect_eval "OclUndefined" "'x'.toInteger()";
        expect_eval "2.5" "'2.5'.toReal()");
    Alcotest.test_case "unknown string operation is an error" `Quick (fun () ->
        expect_error "'a'.frobnicate()");
  ]

(* three-valued logic: an undefined boolean comes from (3/0) > 1 *)
let undef_bool = "((3 / 0) > 1)"

let logic_tests =
  [
    Alcotest.test_case "and truth table" `Quick (fun () ->
        expect_eval "true" "true and true";
        expect_eval "false" "true and false";
        expect_eval "false" ("false and " ^ undef_bool);
        expect_eval "false" (undef_bool ^ " and false");
        expect_eval "OclUndefined" ("true and " ^ undef_bool));
    Alcotest.test_case "or truth table" `Quick (fun () ->
        expect_eval "true" "true or false";
        expect_eval "true" ("true or " ^ undef_bool);
        expect_eval "true" (undef_bool ^ " or true");
        expect_eval "OclUndefined" ("false or " ^ undef_bool);
        expect_eval "false" "false or false");
    Alcotest.test_case "implies truth table" `Quick (fun () ->
        expect_eval "true" "false implies false";
        expect_eval "true" ("false implies " ^ undef_bool);
        expect_eval "true" (undef_bool ^ " implies true");
        expect_eval "OclUndefined" ("true implies " ^ undef_bool);
        expect_eval "false" "true implies false");
    Alcotest.test_case "not and xor" `Quick (fun () ->
        expect_eval "false" "not true";
        expect_eval "OclUndefined" ("not " ^ undef_bool);
        expect_eval "true" "true xor false";
        expect_eval "false" "true xor true";
        expect_eval "OclUndefined" ("true xor " ^ undef_bool));
    Alcotest.test_case "equality treats undefined as a value" `Quick (fun () ->
        expect_eval "true" "(3 / 0) = (1 / 0)";
        expect_eval "false" "(3 / 0) = 1");
    Alcotest.test_case "comparison with undefined is undefined" `Quick (fun () ->
        expect_eval "OclUndefined" "(3 / 0) < 1");
    Alcotest.test_case "if on undefined condition" `Quick (fun () ->
        expect_eval "OclUndefined" ("if " ^ undef_bool ^ " then 1 else 2 endif"));
    Alcotest.test_case "oclIsUndefined" `Quick (fun () ->
        expect_eval "true" "(3 / 0).oclIsUndefined()";
        expect_eval "false" "3.oclIsUndefined()");
    Alcotest.test_case "non-boolean operand is an error" `Quick (fun () ->
        expect_error "1 and true";
        expect_error "not 3");
  ]

(* ---- evaluator: collections ------------------------------------------- *)

let collection_tests =
  [
    Alcotest.test_case "size/isEmpty/notEmpty" `Quick (fun () ->
        expect_eval "3" "Sequence{1,2,3}->size()";
        expect_eval "2" "Set{1,1,2}->size()";
        expect_eval "3" "Bag{1,1,2}->size()";
        expect_eval "true" "Set{}->isEmpty()";
        expect_eval "true" "Set{1}->notEmpty()");
    Alcotest.test_case "includes family" `Quick (fun () ->
        expect_eval "true" "Set{1,2}->includes(2)";
        expect_eval "true" "Set{1,2}->excludes(3)";
        expect_eval "true" "Set{1,2,3}->includesAll(Set{1,3})";
        expect_eval "false" "Set{1,2}->includesAll(Set{1,4})";
        expect_eval "true" "Set{1,2}->excludesAll(Set{3,4})";
        expect_eval "2" "Bag{1,1,2}->count(1)");
    Alcotest.test_case "sum/max/min" `Quick (fun () ->
        expect_eval "6" "Sequence{1,2,3}->sum()";
        expect_eval "6.5" "Sequence{1,2,3.5}->sum()";
        expect_eval "0" "Sequence{}->sum()";
        expect_eval "3" "Set{1,3,2}->max()";
        expect_eval "1" "Set{1,3,2}->min()";
        expect_eval "OclUndefined" "Set{}->max()");
    Alcotest.test_case "first/last/at/indexOf" `Quick (fun () ->
        expect_eval "1" "Sequence{1,2,3}->first()";
        expect_eval "3" "Sequence{1,2,3}->last()";
        expect_eval "2" "Sequence{1,2,3}->at(2)";
        expect_eval "OclUndefined" "Sequence{1}->at(0)";
        expect_eval "OclUndefined" "Sequence{1}->at(5)";
        expect_eval "2" "Sequence{7,8,9}->indexOf(8)";
        expect_eval "OclUndefined" "Sequence{7}->indexOf(9)");
    Alcotest.test_case "conversions" `Quick (fun () ->
        expect_eval "2" "Sequence{1,1,2}->asSet()->size()";
        expect_eval "3" "Set{1,2,3}->asSequence()->size()";
        expect_eval "3" "Sequence{2,1,2}->asBag()->size()");
    Alcotest.test_case "union/intersection" `Quick (fun () ->
        expect_eval "3" "Set{1,2}->union(Set{2,3})->size()";
        expect_eval "4" "Sequence{1,2}->union(Sequence{2,3})->size()";
        expect_eval "Set{2}" "Set{1,2}->intersection(Set{2,3})");
    Alcotest.test_case "including/excluding/append/prepend/reverse" `Quick
      (fun () ->
        expect_eval "Set{1, 2}" "Set{1}->including(2)";
        expect_eval "Set{1}" "Set{1}->including(1)";
        expect_eval "Set{1}" "Set{1, 2}->excluding(2)";
        expect_eval "Sequence{1, 2}" "Sequence{1}->append(2)";
        expect_eval "Sequence{0, 1}" "Sequence{1}->prepend(0)";
        expect_eval "Sequence{2, 1}" "Sequence{1, 2}->reverse()");
    Alcotest.test_case "flatten one level" `Quick (fun () ->
        expect_eval "4" "Sequence{Sequence{1,2}, Sequence{3,4}}->flatten()->size()");
    Alcotest.test_case "undefined receiver propagates" `Quick (fun () ->
        expect_eval "OclUndefined" "(3/0)->size()");
    Alcotest.test_case "scalar receiver is an error" `Quick (fun () ->
        expect_error "3->size()");
    Alcotest.test_case "unknown collection op is an error" `Quick (fun () ->
        expect_error "Set{1}->frobnicate()");
  ]

let iterator_tests =
  [
    Alcotest.test_case "forAll / exists" `Quick (fun () ->
        expect_eval "true" "Sequence{1,2,3}->forAll(x | x > 0)";
        expect_eval "false" "Sequence{1,2,3}->forAll(x | x > 1)";
        expect_eval "true" "Sequence{1,2,3}->exists(x | x = 2)";
        expect_eval "false" "Sequence{1,2,3}->exists(x | x > 5)";
        expect_eval "true" "Set{}->forAll(x | false)";
        expect_eval "false" "Set{}->exists(x | true)");
    Alcotest.test_case "forAll with two variables is a product" `Quick (fun () ->
        expect_eval "true" "Set{1,2}->forAll(x, y | x + y < 5)";
        expect_eval "false" "Set{1,2}->forAll(x, y | x <> y)");
    Alcotest.test_case "three-valued forAll" `Quick (fun () ->
        expect_eval "OclUndefined" "Sequence{0,1}->forAll(x | 1 / x > 0)";
        expect_eval "false" "Sequence{0,-1}->forAll(x | 1 / x > 0)");
    Alcotest.test_case "select / reject" `Quick (fun () ->
        expect_eval "Set{2, 3}" "Set{1,2,3}->select(x | x > 1)";
        expect_eval "Set{1}" "Set{1,2,3}->reject(x | x > 1)";
        expect_eval "Sequence{2}" "Sequence{1,2}->select(x | x = 2)");
    Alcotest.test_case "collect flattens and keeps order on sequences" `Quick
      (fun () ->
        expect_eval "Sequence{2, 4, 6}" "Sequence{1,2,3}->collect(x | x * 2)";
        expect_eval "4"
          "Sequence{Sequence{1,2},Sequence{3,4}}->collect(s | s)->size()");
    Alcotest.test_case "one / any / isUnique" `Quick (fun () ->
        expect_eval "true" "Sequence{1,2,3}->one(x | x = 2)";
        expect_eval "false" "Sequence{1,2,2}->one(x | x = 2)";
        expect_eval "2" "Sequence{1,2,3}->any(x | x > 1)";
        expect_eval "OclUndefined" "Sequence{1}->any(x | x > 5)";
        expect_eval "true" "Sequence{1,2,3}->isUnique(x | x)";
        expect_eval "false" "Sequence{1,2,1}->isUnique(x | x)");
    Alcotest.test_case "sortedBy" `Quick (fun () ->
        expect_eval "Sequence{3, 2, 1}" "Sequence{1,3,2}->sortedBy(x | -x)";
        expect_eval "Sequence{1, 2, 3}" "Set{3,1,2}->sortedBy(x | x)");
    Alcotest.test_case "iterate" `Quick (fun () ->
        expect_eval "6" "Sequence{1,2,3}->iterate(x; acc = 0 | acc + x)";
        expect_eval "'cba'"
          "Sequence{'a','b','c'}->iterate(s; acc = '' | s.concat(acc))");
    Alcotest.test_case "closure" `Quick (fun () ->
        expect_eval "Set{1, 2, 3, 4}"
          "Set{1}->closure(x | if x < 4 then Set{x + 1} else Set{} endif)");
    Alcotest.test_case "closure agrees with allSupers on the model" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let same =
          Ocl.Eval.eval_string m Ocl.Env.empty
            "Class.allInstances()->forAll(c | c.supers->closure(s | s.supers) \
             = c.allSupers)"
        in
        check cb "equivalent" true (same = Ocl.Value.V_bool true));
    Alcotest.test_case "edge cases on empty collections" `Quick (fun () ->
        expect_eval "true" "Set{}->includesAll(Set{})";
        expect_eval "0" "Set{}->count(1)";
        expect_eval "false" "Set{}->one(x | true)";
        expect_eval "true" "Set{}->isUnique(x | x)";
        expect_eval "Sequence{}" "Set{}->sortedBy(x | x)";
        expect_eval "OclUndefined" "Sequence{}->first()");
    Alcotest.test_case "sortedBy is stable" `Quick (fun () ->
        (* equal keys keep receiver order *)
        expect_eval "Sequence{'bb', 'aa', 'c'}"
          "Sequence{'bb','aa','c'}->sortedBy(s | if s.size() = 2 then 0 else 1 endif)");
    Alcotest.test_case "multiple variables rejected for select" `Quick (fun () ->
        expect_error "Set{1}->select(x, y | x = y)");
    Alcotest.test_case "unknown iterator is an error" `Quick (fun () ->
        expect_error "Set{1}->frobAll(x | x)");
  ]

(* ---- evaluator: model navigation --------------------------------------- *)

let model_tests =
  let m = Fixtures.banking () in
  let with_stereos =
    let acct = Fixtures.class_id m "Account" in
    Mof.Builder.set_tag (Mof.Builder.add_stereotype m acct "entity") acct "color" "red"
  in
  [
    Alcotest.test_case "allInstances and size" `Quick (fun () ->
        expect_eval ~m "4" "Class.allInstances()->size()";
        expect_eval ~m "1" "Association.allInstances()->size()";
        expect_eval ~m "2" "Package.allInstances()->size()");
    Alcotest.test_case "Element.allInstances covers everything" `Quick (fun () ->
        expect_eval ~m (string_of_int (Mof.Model.size m))
          "Element.allInstances()->size()");
    Alcotest.test_case "name and qualifiedName" `Quick (fun () ->
        expect_eval ~m "true"
          "Class.allInstances()->exists(c | c.qualifiedName = 'bank.Account')");
    Alcotest.test_case "implicit collect over classes" `Quick (fun () ->
        (* balance + number on Account, name on Customer *)
        expect_eval ~m "3" "Class.allInstances().attributes->size()");
    Alcotest.test_case "operations, parameters, result types" `Quick (fun () ->
        expect_eval ~m "true"
          "Operation.allInstances()->exists(o | o.name = 'withdraw' and \
           o.resultType = 'Boolean')";
        expect_eval ~m "true"
          "Operation.allInstances()->select(o | o.name = \
           'transfer')->forAll(o | o.parameters->size() = 3)");
    Alcotest.test_case "operation.class backlink" `Quick (fun () ->
        expect_eval ~m "true"
          "Operation.allInstances()->forAll(o | o.class.oclIsKindOf(Class))");
    Alcotest.test_case "supers and allSupers" `Quick (fun () ->
        expect_eval ~m "true"
          "Class.allInstances()->exists(c | c.name = 'SavingsAccount' and \
           c.allSupers->exists(s | s.name = 'Account'))");
    Alcotest.test_case "attribute meta-properties" `Quick (fun () ->
        expect_eval ~m "true"
          "Attribute.allInstances()->select(a | a.name = 'balance')->forAll(a \
           | a.type = 'Real' and a.visibility = 'private' and a.lower = 1 and \
           a.upper = 1 and not a.isDerived)");
    Alcotest.test_case "association ends" `Quick (fun () ->
        expect_eval ~m "Sequence{'owner', 'accounts'}"
          "Association.allInstances()->any(a | true).endNames");
    Alcotest.test_case "generalization child/parent" `Quick (fun () ->
        expect_eval ~m "true"
          "Generalization.allInstances()->forAll(g | g.child.name = \
           'SavingsAccount' and g.parent.name = 'Account')");
    Alcotest.test_case "constraint body/language/constrained" `Quick (fun () ->
        expect_eval ~m "true"
          "Constraint.allInstances()->forAll(k | k.language = 'OCL' and \
           k.constrained->size() = 1 and k.body.size() > 0)");
    Alcotest.test_case "enumeration literals" `Quick (fun () ->
        let m2, _ =
          Mof.Builder.add_enumeration m ~owner:(Mof.Model.root m)
            ~name:"Currency" ~literals:[ "CHF"; "EUR" ]
        in
        expect_eval ~m:m2 "Sequence{'CHF', 'EUR'}"
          "Enumeration.allInstances()->any(e | true).literals";
        expect_eval ~m:m2 "true"
          "Enumeration.allInstances()->forAll(e | e.literals->size() = 2)");
    Alcotest.test_case "owner and ownedElements" `Quick (fun () ->
        expect_eval ~m "true"
          "Class.allInstances()->forAll(c | c.owner.ownedElements->includes(c))");
    Alcotest.test_case "stereotypes and tags" `Quick (fun () ->
        expect_eval ~m:with_stereos "true"
          "Class.allInstances()->exists(c | c.hasStereotype('entity'))";
        expect_eval ~m:with_stereos "'red'"
          "Class.allInstances()->any(c | c.hasStereotype('entity')).tag('color')";
        expect_eval ~m:with_stereos "true"
          "Class.allInstances()->any(c | c.name = 'Account').hasTag('color')";
        expect_eval ~m:with_stereos "OclUndefined"
          "Class.allInstances()->any(c | c.name = 'Teller').tag('color')");
    Alcotest.test_case "oclIsKindOf / oclIsTypeOf / oclAsType" `Quick (fun () ->
        expect_eval ~m "true" "Class.allInstances()->forAll(c | c.oclIsKindOf(Class))";
        expect_eval ~m "true"
          "Class.allInstances()->forAll(c | c.oclIsKindOf(Element))";
        expect_eval ~m "false"
          "Class.allInstances()->exists(c | c.oclIsTypeOf(Element))";
        expect_eval "true" "1.oclIsKindOf(Integer)";
        expect_eval "true" "1.oclIsKindOf(Real)";
        expect_eval "false" "1.oclIsTypeOf(Real)";
        expect_eval "5" "5.oclAsType(Real).oclAsType(Integer)";
        expect_eval "OclUndefined" "'x'.oclAsType(Integer)");
    Alcotest.test_case "unknown property is an error" `Quick (fun () ->
        expect_error ~m "Class.allInstances()->forAll(c | c.nothing = 1)");
    Alcotest.test_case "unknown classifier in allInstances is an error" `Quick
      (fun () -> expect_error ~m "Widget.allInstances()");
    Alcotest.test_case "unknown variable is an error" `Quick (fun () ->
        expect_error "nope + 1");
    Alcotest.test_case "self unbound is an error" `Quick (fun () ->
        expect_error "self.name");
    Alcotest.test_case "env binds variables and self" `Quick (fun () ->
        let acct = Fixtures.class_id m "Account" in
        let env =
          Ocl.Env.with_self (Ocl.Value.V_elem acct)
            (Ocl.Env.bind "k" (Ocl.Value.V_int 10) Ocl.Env.empty)
        in
        check cs "self nav" "'Account'" (eval_s ~m ~env "self.name");
        check cs "var" "11" (eval_s ~m ~env "k + 1"));
  ]

(* ---- constraints ------------------------------------------------------- *)

let holds_c ?env m c = Ocl.Constraint_.check ?env m c = Ocl.Constraint_.Holds

let constraint_tests =
  let m = Fixtures.banking () in
  [
    Alcotest.test_case "contextual constraint holds per instance" `Quick
      (fun () ->
        let c =
          Ocl.Constraint_.make ~context:"Class" ~name:"named"
            "self.name.size() > 0"
        in
        check cb "holds" true (holds_c m c));
    Alcotest.test_case "failing constraint reports violators" `Quick (fun () ->
        let c =
          Ocl.Constraint_.make ~context:"Class" ~name:"has-attrs"
            "self.attributes->notEmpty()"
        in
        match Ocl.Constraint_.check m c with
        | Ocl.Constraint_.Fails violators ->
            check cb "Teller among violators" true
              (List.mem "bank.Teller" violators)
        | o ->
            Alcotest.fail
              (Format.asprintf "unexpected %a" Ocl.Constraint_.pp_outcome o));
    Alcotest.test_case "context-free constraint" `Quick (fun () ->
        let c =
          Ocl.Constraint_.make ~name:"global" "Class.allInstances()->size() = 4"
        in
        check cb "holds" true (holds_c m c));
    Alcotest.test_case "ill-formed body reported" `Quick (fun () ->
        let c = Ocl.Constraint_.make ~name:"broken" "1 +" in
        match Ocl.Constraint_.check m c with
        | Ocl.Constraint_.Ill_formed _ -> ()
        | _ -> Alcotest.fail "expected ill-formed");
    Alcotest.test_case "non-boolean body reported" `Quick (fun () ->
        let c = Ocl.Constraint_.make ~name:"intbody" "1 + 1" in
        match Ocl.Constraint_.check m c with
        | Ocl.Constraint_.Ill_formed _ -> ()
        | _ -> Alcotest.fail "expected ill-formed");
    Alcotest.test_case "unknown context metaclass reported" `Quick (fun () ->
        let c = Ocl.Constraint_.make ~context:"Widget" ~name:"w" "true" in
        match Ocl.Constraint_.check m c with
        | Ocl.Constraint_.Ill_formed _ -> ()
        | _ -> Alcotest.fail "expected ill-formed");
    Alcotest.test_case "parameters bind wherever they occur" `Quick
      (fun () ->
        let c =
          Ocl.Constraint_.make ~name:"params" "$a$ and $b$ or $a$ and $c$"
        in
        let env b =
          Ocl.Env.of_bindings
            [
              ("$a$", Ocl.Value.V_bool true);
              ("$b$", Ocl.Value.V_bool false);
              ("$c$", Ocl.Value.V_bool b);
            ]
        in
        check cb "c true" true (holds_c ~env:(env true) m c);
        check cb "c false" false (holds_c ~env:(env false) m c));
    Alcotest.test_case "substitute fills holes" `Quick (fun () ->
        (* the environment is the substitution: it binds [$target$] as a
           value, so a quote or a bar in it never reaches the parser *)
        let c =
          Ocl.Constraint_.make ~name:"param"
            "Class.allInstances()->exists(c | c.name = $target$)"
        in
        let env target =
          Ocl.Env.of_bindings [ ("$target$", Ocl.Value.V_string target) ]
        in
        check cb "Account" true
          (holds_c ~env:(env "Account") m c);
        check cb "quote and bar are data" false
          (holds_c ~env:(env "Nope') or true or ('x|y") m c));
    Alcotest.test_case "unbound holes are left in place" `Quick (fun () ->
        let c = Ocl.Constraint_.make ~name:"left" "$a$ = $b$" in
        let env = Ocl.Env.of_bindings [ ("$a$", Ocl.Value.V_int 1) ] in
        match Ocl.Constraint_.check ~env m c with
        | Ocl.Constraint_.Ill_formed msg ->
            check cs "names the parameter" "left: unknown variable $b$" msg
        | o -> Alcotest.failf "unexpected %a" Ocl.Constraint_.pp_outcome o);
    Alcotest.test_case "only the environment binds a parameter" `Quick
      (fun () ->
        List.iter
          (fun body ->
            match (Ocl.Constraint_.make ~name:"b" body).Ocl.Constraint_.ast with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s parsed" body)
          [
            "let $p$ = 1 in $p$ = 1";
            "Set{1}->forAll($p$ | $p$ > 0)";
            "Set{1}->iterate(x; $acc$ = 0 | x)";
          ]);
    Alcotest.test_case "undefined body counts as not holding" `Quick (fun () ->
        let c = Ocl.Constraint_.make ~name:"undef" "(3 / 0) > 1" in
        check cb "fails" false (holds_c m c));
  ]

(* ---- typechecker ------------------------------------------------------- *)

let tc_infer ?self_type ?vars src =
  match Ocl.Parser.parse_opt src with
  | Ok ast -> Ocl.Typecheck.infer ?self_type ?vars ast
  | Error e -> Alcotest.failf "parse failed: %s" e

let tc_diags src = List.length (snd (tc_infer src))

let tc_type ?self_type src = fst (tc_infer ?self_type src)

let ty =
  Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<ty>") ( = )

let typecheck_tests =
  [
    Alcotest.test_case "well-typed expressions have no diagnostics" `Quick
      (fun () ->
        List.iter
          (fun src -> check ci src 0 (tc_diags src))
          [
            "1 + 2 * 3";
            "'a'.concat('b').size() > 0";
            "Set{1,2}->forAll(x | x > 0)";
            "Class.allInstances()->collect(c | c.name)";
            "Class.allInstances()->forAll(c | c.attributes->forAll(a | a.lower >= 0))";
            "if 1 < 2 then 'a' else 'b' endif";
            "let x = 3 in x + 1";
            "Sequence{1,2}->iterate(x; acc = 0 | acc + x)";
          ]);
    Alcotest.test_case "inferred types" `Quick (fun () ->
        let open Ocl.Typecheck in
        check ty "int" T_integer (tc_type "1 + 2");
        check ty "real" T_real (tc_type "1 / 2");
        check ty "bool" T_boolean (tc_type "1 < 2");
        check ty "string" T_string (tc_type "'a'.concat('b')");
        check ty "set of class" (T_set (T_element (Some "Class")))
          (tc_type "Class.allInstances()");
        check ty "collect names" (T_bag T_string)
          (tc_type "Class.allInstances()->collect(c | c.name)");
        check ty "select keeps type" (T_set (T_element (Some "Class")))
          (tc_type "Class.allInstances()->select(c | c.isAbstract)");
        check ty "self typed" (T_seq (T_element (Some "Attribute")))
          (tc_type ~self_type:"Class" "self.attributes"));
    Alcotest.test_case "diagnostics for definite errors" `Quick (fun () ->
        List.iter
          (fun src -> check cb src true (tc_diags src > 0))
          [
            "nope + 1";
            "Class.allInstances()->forAll(c | c.nosuch = 1)";
            "1 and true";
            "'a' + 1";
            "Set{1}->select(x, y | x = y)";
            "Set{1}->frobAll(x | x)";
            "Set{1}->frobnicate()";
            "2.5 div 2";
            "if 1 then 2 else 3 endif";
            "Widget.allInstances()";
            "3.oclIsKindOf(Widget)";
          ]);
    Alcotest.test_case "conforms relation" `Quick (fun () ->
        (* the relation as the checker applies it: an if takes the type of
           the branch the other conforms to, and div/mod need operands
           that conform to Integer *)
        let open Ocl.Typecheck in
        check ty "int to real" T_real (tc_type "if true then 1 else 2.5 endif");
        check ci "real to int" 1 (tc_diags "2.5 mod 2");
        check ty "any both ways" T_any
          (fst (tc_infer ~vars:[ ("v", T_any) ] "if v then true else v endif"));
        check ci "any both ways, silently" 0
          (List.length
             (snd (tc_infer ~vars:[ ("v", T_any) ] "if v then true else v endif")));
        check ty "element widening" (T_element None)
          (fst
             (tc_infer
                ~vars:[ ("c", T_element (Some "Class")); ("o", T_element None) ]
                "if true then c else o endif")));
  ]

(* ---- properties -------------------------------------------------------- *)

let property_tests =
  let int_list_gen = QCheck2.Gen.(list_size (int_bound 8) (int_range (-20) 20)) in
  let seq_src xs =
    "Sequence{"
    ^ String.concat ", "
        (List.map
           (fun n -> if n < 0 then "(" ^ string_of_int n ^ ")" else string_of_int n)
           xs)
    ^ "}"
  in
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"value compare is antisymmetric" ~count:200
        QCheck2.Gen.(pair Gen.value_gen Gen.value_gen)
        (fun (a, b) ->
          let c1 = Ocl.Value.compare a b and c2 = Ocl.Value.compare b a in
          (c1 = 0 && c2 = 0) || c1 * c2 < 0);
      QCheck2.Test.make ~name:"set canonicalization is idempotent" ~count:200
        QCheck2.Gen.(list_size (int_bound 8) Gen.value_gen)
        (fun vs ->
          match Ocl.Value.set vs with
          | Ocl.Value.V_set xs ->
              Ocl.Value.equal (Ocl.Value.set xs) (Ocl.Value.V_set xs)
          | _ -> false);
      QCheck2.Test.make
        ~name:"allInstances over the kind index matches a full scan" ~count:50
        Gen.model_gen
        (fun m ->
          let scan name =
            Some
              (Ocl.Value.set
                 (List.filter_map
                    (fun (e : Mof.Element.t) ->
                      if Mof.Element.metaclass e = name then
                        Some (Ocl.Value.V_elem e.Mof.Element.id)
                      else None)
                    (Mof.Model.elements m)))
          in
          List.for_all
            (fun name -> Ocl.Meta.all_instances m name = scan name)
            Mof.Kind.all_names);
      QCheck2.Test.make ~name:"forAll agrees with List.for_all" ~count:100
        QCheck2.Gen.(pair int_list_gen (int_range (-20) 20))
        (fun (xs, k) ->
          let kk = if k < 0 then "(" ^ string_of_int k ^ ")" else string_of_int k in
          let src = Printf.sprintf "%s->forAll(x | x > %s)" (seq_src xs) kk in
          eval src = Ocl.Value.V_bool (List.for_all (fun x -> x > k) xs));
      QCheck2.Test.make ~name:"exists is the dual of forAll" ~count:100
        QCheck2.Gen.(pair int_list_gen (int_range (-20) 20))
        (fun (xs, k) ->
          let kk = if k < 0 then "(" ^ string_of_int k ^ ")" else string_of_int k in
          let ex = eval (Printf.sprintf "%s->exists(x | x > %s)" (seq_src xs) kk) in
          let fa =
            eval
              (Printf.sprintf "not %s->forAll(x | not (x > %s))" (seq_src xs) kk)
          in
          Ocl.Value.equal ex fa);
      QCheck2.Test.make ~name:"select + reject partition the receiver"
        ~count:100 int_list_gen (fun xs ->
          let sel =
            eval (Printf.sprintf "%s->select(x | x > 0)->size()" (seq_src xs))
          in
          let rej =
            eval (Printf.sprintf "%s->reject(x | x > 0)->size()" (seq_src xs))
          in
          match (sel, rej) with
          | Ocl.Value.V_int a, Ocl.Value.V_int b -> a + b = List.length xs
          | _ -> false);
      QCheck2.Test.make ~name:"sum agrees with fold" ~count:100 int_list_gen
        (fun xs ->
          eval (seq_src xs ^ "->sum()")
          = Ocl.Value.V_int (List.fold_left ( + ) 0 xs));
      QCheck2.Test.make ~name:"sortedBy yields a sorted permutation" ~count:100
        int_list_gen (fun xs ->
          match eval (seq_src xs ^ "->sortedBy(x | x)") with
          | Ocl.Value.V_seq vs ->
              let ints =
                List.filter_map
                  (function Ocl.Value.V_int n -> Some n | _ -> None)
                  vs
              in
              ints = List.sort compare xs
          | _ -> false);
      QCheck2.Test.make ~name:"evaluation is deterministic" ~count:50
        int_list_gen (fun xs ->
          let src = seq_src xs ^ "->asSet()->size()" in
          Ocl.Value.equal (eval src) (eval src));
    ]

(* ---- query planner ------------------------------------------------------ *)

(* Probe nodes in a planned AST. A probe's last field is the original
   expression it falls back to, so it is not searched. *)
let rec probes e =
  let sum = List.fold_left (fun n e -> n + probes e) 0 in
  match e with
  | Ocl.Ast.E_probe_exists_name (_, rhs, _) | Ocl.Ast.E_probe_select_name (_, rhs, _) ->
      1 + probes rhs
  | Ocl.Ast.E_probe_forall_guard (_, guard, _, body, _) -> 1 + probes guard + probes body
  | Ocl.Ast.E_int _ | Ocl.Ast.E_real _ | Ocl.Ast.E_string _ | Ocl.Ast.E_bool _
  | Ocl.Ast.E_self | Ocl.Ast.E_var _ ->
      0
  | Ocl.Ast.E_collection (_, es) -> sum es
  | Ocl.Ast.E_if (a, b, c) -> sum [ a; b; c ]
  | Ocl.Ast.E_let (_, a, b) | Ocl.Ast.E_binop (_, a, b) -> sum [ a; b ]
  | Ocl.Ast.E_not a | Ocl.Ast.E_neg a | Ocl.Ast.E_prop (a, _) -> probes a
  | Ocl.Ast.E_call (a, _, args) | Ocl.Ast.E_coll_op (a, _, args) -> sum (a :: args)
  | Ocl.Ast.E_iter (a, _, _, body) -> sum [ a; body ]
  | Ocl.Ast.E_iterate (a, _, _, init, body) -> sum [ a; init; body ]

let plan_count src =
  match Ocl.Parser.parse_opt src with
  | Ok ast -> probes (Ocl.Plan.optimize ast)
  | Error e -> Alcotest.failf "parse failed: %s" e

let ab_model () =
  let m = Mof.Model.create ~name:"planned" in
  let root = Mof.Model.root m in
  let m, _ = Mof.Builder.add_class m ~owner:root ~name:"A" in
  let m, _ = Mof.Builder.add_class m ~owner:root ~name:"B" in
  let m, _ = Mof.Builder.add_interface m ~owner:root ~name:"A" in
  m

(* The planner is only allowed to change how an answer is computed, never
   the answer (nor the raised error): every body is checked through the
   planned path and the naive fold path under the same bindings, and the
   outcomes must be structurally identical. *)
let agree_with_naive ?(env = Ocl.Env.empty) m body =
  let c = Ocl.Constraint_.make ~name:"t" body in
  check cb body true
    (Ocl.Constraint_.check ~env m c = Ocl.Constraint_.check_naive ~env m c)

let first n xs = List.filteri (fun i _ -> i < n) xs

(* The planner's real traffic: every builtin concern specialized with
   targets all present, all absent, mixed and empty, and each
   pre/postcondition compared under the specialization's bindings on the
   input model, after the rewrite and after a second application. Returns
   the number of comparisons. *)
let builtin_condition_comparisons () =
  let compared = ref 0 in
  let agree label env m (c : Ocl.Constraint_.t) =
    incr compared;
    let planned = Ocl.Constraint_.check ~env m c in
    let naive = Ocl.Constraint_.check_naive ~env m c in
    if planned <> naive then
      Alcotest.failf "%s, %s: planned %a, naive %a" label c.Ocl.Constraint_.name
        Ocl.Constraint_.pp_outcome planned Ocl.Constraint_.pp_outcome naive
  in
  (* messaging targets operations as Class.operation, the others classes *)
  let targets key m =
    let present, absent =
      if String.equal key "messaging" then
        ( List.concat_map
            (fun (cls : Mof.Element.t) ->
              List.map
                (fun (op : Mof.Element.t) ->
                  cls.Mof.Element.name ^ "." ^ op.Mof.Element.name)
                (Mof.Query.operations_of m cls.Mof.Element.id))
            (Mof.Query.classes m),
          [ "Nope.never"; "Gone.away" ] )
      else (Fixtures.class_names m, [ "Nope"; "Gone" ])
    in
    [
      ("present", first 2 present);
      ("absent", absent);
      ("mixed", first 1 present @ first 1 absent);
      ("empty", []);
    ]
  in
  List.iter
    (fun (entry : Concerns.Registry.entry) ->
      let gmt = entry.Concerns.Registry.gmt in
      let key = entry.Concerns.Registry.concern.Concerns.Concern.key in
      let formal = (List.hd gmt.Transform.Gmt.formals).Transform.Params.pname in
      List.iter
        (fun (model_name, model) ->
          List.iter
            (fun (target_kind, names) ->
              let value =
                Transform.Params.V_list
                  (List.map (fun n -> Transform.Params.V_string n) names)
              in
              let cmt = Transform.Cmt.specialize_exn gmt [ (formal, value) ] in
              let env = Transform.Cmt.env cmt in
              let conditions =
                gmt.Transform.Gmt.preconditions
                @ gmt.Transform.Gmt.postconditions
              in
              let rec stage applied m =
                let label =
                  Printf.sprintf "%s on %s, %s targets, %d rewrite(s)" key
                    model_name target_kind applied
                in
                List.iter (agree label env m) conditions;
                if applied < 2 then
                  match Transform.Cmt.rewrite cmt m with
                  | m' -> stage (applied + 1) m'
                  | exception Transform.Gmt.Rewrite_error _ -> ()
              in
              stage 0 model)
            (targets key model))
        [ ("banking", Fixtures.banking ()); ("synthetic-8", Fixtures.synthetic 8) ])
    (Concerns.Registry.all ());
  !compared

let planner_tests =
  [
    Alcotest.test_case "optimize_count finds the planned shapes" `Quick
      (fun () ->
        check ci "exists" 1
          (plan_count "Class.allInstances()->exists(x | x.name = 'A')");
        check ci "flipped" 1
          (plan_count "Class.allInstances()->exists(x | 'A' = x.name)");
        check ci "select" 1
          (plan_count
             "Class.allInstances()->select(x | x.name = 'A')->size() >= 1");
        check ci "guarded forAll" 1
          (plan_count
             "Class.allInstances()->forAll(x | Set{'A', 'B'}->includes(x.name) \
              implies x.name.size() >= 0)");
        check ci "guarded forAll, parameter guard" 1
          (plan_count
             "Class.allInstances()->forAll(x | $names$->includes(x.name) \
              implies x.name.size() >= 0)");
        check ci "probe under an outer iterator" 1
          (plan_count
             "Sequence{'A', 'B'}->forAll(n | \
              Class.allInstances()->exists(c | c.name = n))"));
    Alcotest.test_case "optimize_count refuses the unplannable shapes" `Quick
      (fun () ->
        check ci "iterator on both sides" 0
          (plan_count "Class.allInstances()->exists(x | x.name = x.name)");
        check ci "unknown classifier" 0
          (plan_count "Widget.allInstances()->exists(x | x.name = 'A')");
        check ci "guard mentions the iterator" 0
          (plan_count
             "Class.allInstances()->forAll(x | \
              Set{x.name, 'A'}->includes(x.name) implies x.name = 'A')");
        check ci "guard is the iterator" 0
          (plan_count
             "Class.allInstances()->forAll(x | x->includes(x.name) implies \
              x.name = 'A')");
        check ci "non-string guard literal" 0
          (plan_count
             "Class.allInstances()->forAll(x | Set{1, 2}->includes(x.name) \
              implies x.name = 'A')");
        check ci "forAll without a guard" 0
          (plan_count "Class.allInstances()->forAll(x | x.name.size() >= 0)"));
    Alcotest.test_case "planning is idempotent" `Quick (fun () ->
        match
          Ocl.Parser.parse_opt
            "Class.allInstances()->exists(x | x.name = 'A')"
        with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok ast ->
            let planned = Ocl.Plan.optimize ast in
            let replanned = Ocl.Plan.optimize planned in
            check ci "one probe" 1 (probes replanned);
            check cb "unchanged" true (replanned = planned));
    Alcotest.test_case "plan IR renders as the surface syntax" `Quick
      (fun () ->
        List.iter
          (fun src ->
            match Ocl.Parser.parse_opt src with
            | Error e -> Alcotest.failf "parse failed: %s" e
            | Ok ast ->
                check cs src (Ocl.Ast.to_string ast)
                  (Ocl.Ast.to_string (Ocl.Plan.optimize ast)))
          [
            "Class.allInstances()->exists(x | x.name = 'A')";
            "Class.allInstances()->select(x | x.name = 'A')->size() >= 1";
            "Class.allInstances()->forAll(x | Set{'A'}->includes(x.name) \
             implies x.name = 'A')";
          ]);
    Alcotest.test_case "probes agree with the naive fold" `Quick (fun () ->
        let m = ab_model () in
        List.iter (agree_with_naive m)
          [
            "Class.allInstances()->exists(x | x.name = 'A')";
            "Class.allInstances()->exists(x | 'B' = x.name)";
            "Class.allInstances()->exists(x | x.name = 'Nope')";
            (* the Interface named 'A' must not leak into the Class probe *)
            "Class.allInstances()->select(x | x.name = 'A')->size() = 1";
            "Interface.allInstances()->select(x | x.name = 'A')->size() = 1";
            "Element.allInstances()->select(x | x.name = 'A')->size() = 2";
            "Class.allInstances()->forAll(x | Set{'A'}->includes(x.name) \
             implies x.name = 'A')";
            "Class.allInstances()->forAll(x | Set{'A', 'B'}->includes(x.name) \
             implies x.name.size() = 1)";
            "Class.allInstances()->forAll(x | Set{'Nope'}->includes(x.name) \
             implies x.name = 'never evaluated')";
          ]);
    Alcotest.test_case "probe fallbacks match the fold exactly" `Quick
      (fun () ->
        let m = ab_model () in
        List.iter (agree_with_naive m)
          [
            (* shadowed classifier: fall back to the fold, same error *)
            "let Class = Sequence{'A'} in \
             Class.allInstances()->exists(x | x.name = 'A')";
            (* non-string rhs: uniformly false, not an error *)
            "Class.allInstances()->exists(x | x.name = 3)";
            (* erroring rhs on a non-empty extent: same Ill_formed message *)
            "Class.allInstances()->exists(x | x.name = nope)";
            (* erroring rhs on an empty extent: the fold never evaluates the
               body, so neither may the probe *)
            "Enumeration.allInstances()->exists(x | x.name = nope)";
            (* erroring consequent behind a matching guard *)
            "Class.allInstances()->forAll(x | Set{'A'}->includes(x.name) \
             implies x.nope)";
          ];
        (* a parameter guard, under each kind of binding: only a collection
           of strings is probed, anything else is left to the fold *)
        let guarded k =
          k
          ^ ".allInstances()->forAll(x | $g$->includes(x.name) implies x.nope)"
        in
        let bound v = Ocl.Env.of_bindings [ ("$g$", v) ] in
        let str s = Ocl.Value.V_string s and int n = Ocl.Value.V_int n in
        List.iter
          (fun (env, body) -> agree_with_naive ~env m body)
          [
            (bound (Ocl.Value.set [ str "A"; str "Nope" ]), guarded "Class");
            (bound (Ocl.Value.set [ int 1; int 2 ]), guarded "Class");
            (bound (str "A"), guarded "Class");
            (Ocl.Env.empty, guarded "Enumeration");
            (Ocl.Env.empty, guarded "Class");
          ]);
    Alcotest.test_case "an Element probe on an empty model skips the rhs"
      `Quick (fun () ->
        let m0 = Mof.Model.create ~name:"empty" in
        let m = Mof.Model.remove m0 (Mof.Model.root m0) in
        check cb "no element left" true (Mof.Model.is_empty m);
        let c =
          Ocl.Constraint_.make ~name:"t"
            "Element.allInstances()->exists(x | x.name = nope)"
        in
        (* [nope] is unbound: evaluating the rhs would make it ill-formed *)
        check cb "false, not ill-formed" true
          (Ocl.Constraint_.check m c = Ocl.Constraint_.Fails []);
        check cb "agrees with the fold" true
          (Ocl.Constraint_.check m c = Ocl.Constraint_.check_naive m c));
    Alcotest.test_case "builtin concern conditions agree with the naive fold"
      `Quick (fun () ->
        check cb "conditions compared" true (builtin_condition_comparisons () > 0));
  ]

let () =
  Alcotest.run "ocl"
    [
      ("lexer", lexer_tests);
      ("parser", parser_tests);
      ("values", value_tests);
      ("arithmetic", arithmetic_tests);
      ("strings", string_tests);
      ("logic", logic_tests);
      ("collections", collection_tests);
      ("iterators", iterator_tests);
      ("model-navigation", model_tests);
      ("constraints", constraint_tests);
      ("typecheck", typecheck_tests);
      ("planner", planner_tests);
      ("properties", property_tests);
    ]
