(* Tests for the Ocl.Compile failure cache: an ill-formed body is cached
   as its exception, re-raised identically on every hit, and never
   poisons a corrected body compiled afterwards. *)

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string

(* Distinctive source strings so these entries cannot have been populated
   by other tests sharing the domain-local cache. *)
let bad_src = "self.test_vm_poison ->"
let fixed_src = "self.test_vm_poison->isEmpty()"

let exn_of src = try Ok (Ocl.Compile.compile_exn src) with e -> Error e

let failure_cache_tests =
  [
    Alcotest.test_case "a cached parse failure re-raises the original exception"
      `Quick (fun () ->
        let first = exn_of bad_src in
        let second = exn_of bad_src in
        (match first with
        | Error (Ocl.Parser.Parse_error _) -> ()
        | Error e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
        | Ok _ -> Alcotest.fail "ill-formed body compiled");
        check cb "cache hit raises the identical exception" true (first = second);
        (* the Result-returning face renders the same message both times *)
        match (Ocl.Compile.compile bad_src, Ocl.Compile.compile bad_src) with
        | Error m1, Error m2 -> check cs "same message" m1 m2
        | _ -> Alcotest.fail "expected Error from compile");
    Alcotest.test_case "a corrected body is not poisoned by the stale failure"
      `Quick (fun () ->
        (match exn_of bad_src with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "ill-formed body compiled");
        (match Ocl.Compile.compile fixed_src with
        | Ok c ->
            check cs "handle keeps its own source" fixed_src c.Ocl.Compile.src
        | Error m -> Alcotest.fail ("corrected body failed to compile: " ^ m));
        (* and the failure entry is still intact alongside the fix *)
        match exn_of bad_src with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "stale failure entry was dropped");
    Alcotest.test_case "uncached and cached compiles raise alike" `Quick
      (fun () ->
        (* [Parser.parse] is the uncached reference: no memo table behind it *)
        let uncached =
          try Ok (Ocl.Parser.parse bad_src) with e -> Error e
        in
        let cached = exn_of bad_src in
        match (uncached, cached) with
        | Error e1, Error e2 -> check cb "same exception" true (e1 = e2)
        | _ -> Alcotest.fail "ill-formed body parsed");
  ]

let () =
  Alcotest.run "compile-cache" [ ("compile-cache", failure_cache_tests) ]
