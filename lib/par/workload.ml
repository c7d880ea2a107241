(* The E14 batch workload's shape, and the tests' and benches' synthetic
   model: every class carries [attrs] attributes and [ops] operations with
   one integer parameter and an integer result. *)

let synthetic ?(attrs = 3) ?(ops = 3) ~classes name =
  let m = Mof.Model.create ~name in
  let root = Mof.Model.root m in
  let rec add_class m i =
    if i >= classes then m
    else
      let m, cls =
        Mof.Builder.add_class m ~owner:root ~name:(Printf.sprintf "C%d" i)
      in
      let rec add_attr m j =
        if j >= attrs then m
        else
          let m, _ =
            Mof.Builder.add_attribute m ~cls ~name:(Printf.sprintf "f%d" j)
              ~typ:
                (if j mod 2 = 0 then Mof.Kind.Dt_integer else Mof.Kind.Dt_string)
          in
          add_attr m (j + 1)
      in
      let rec add_op m j =
        if j >= ops then m
        else
          let m, op =
            Mof.Builder.add_operation m ~owner:cls ~name:(Printf.sprintf "m%d" j)
          in
          let m, _ =
            Mof.Builder.add_parameter m ~op ~name:"x" ~typ:Mof.Kind.Dt_integer
          in
          let m = Mof.Builder.set_result m ~op ~typ:Mof.Kind.Dt_integer in
          add_op m (j + 1)
      in
      add_class (add_op (add_attr m 0) 0) (i + 1)
  in
  add_class m 0

let models ?(classes = 20) n =
  List.init n (fun i -> synthetic ~classes (Printf.sprintf "batch%d" i))
