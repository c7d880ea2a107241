(* A per-application report. The diff is kept structurally and rendered on
   demand through [Mof.Diff.pp] — no pre-formatted strings are accumulated;
   the machine-readable form of the same data is the obs event emitted by
   [make]. *)

type t = {
  transformation : string;
  concern : string;
  parameters : (string * string) list;
  diff : Mof.Diff.t;
}

let make cmt (diff : Mof.Diff.t) =
  if Obs.enabled () then
    Obs.event ~cat:"transform" "report.make"
      ~args:
        (("transformation", Obs.Event.V_string (Cmt.name cmt))
        :: ("concern", Obs.Event.V_string (Cmt.concern cmt))
        :: Trace.diff_args diff);
  {
    transformation = Cmt.name cmt;
    concern = Cmt.concern cmt;
    parameters =
      List.map
        (fun (name, v) -> (name, Params.value_to_string v))
        (Params.bindings cmt.Cmt.params);
    diff;
  }

let summary t =
  Format.asprintf "%s [%s] %a" t.transformation t.concern Mof.Diff.pp t.diff
