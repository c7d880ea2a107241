(* Hierarchical span bookkeeping: one sequence counter and nesting depth
   per domain (Domain.DLS), shared with instant events so each domain's
   event stream has a total, deterministic order. Per-domain state is what
   lets a pool of worker domains trace concurrently without racing a global
   counter; the emitting domain's id is stamped on every event. Timing
   (wall ns) and allocation deltas are captured between [enter] and
   [leave]. *)

type open_span = { name : string; cat : string; t0 : int64; a0 : float }

type state = {
  mutable seq : int;
  mutable depth : int;
  mutable req : int;  (** current request id, 0 = no request in scope *)
  mutable sess : int;  (** current session id, 0 = no session in scope *)
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { seq = 0; depth = 0; req = 0; sess = 0 })

let state () = Domain.DLS.get state_key
let seq () = (state ()).seq
let depth () = (state ()).depth
let request_id () = (state ()).req
let session_id () = (state ()).sess

(* [reset] renumbers (seq/depth) only; [Obs.reset] clears the request
   context separately. *)
let reset () =
  let st = state () in
  st.seq <- 0;
  st.depth <- 0

let clear_request () =
  let st = state () in
  st.req <- 0;
  st.sess <- 0

(* Request ids are allocated process-wide: two concurrent sessions must
   never share one, whatever domain runs them. The allocation order under
   a pool is a scheduling accident, which is why [Event.normalize] zeroes
   the ids — determinism oracles compare traces modulo request numbering. *)
let req_counter = Atomic.make 1
let fresh_request_id () = Atomic.fetch_and_add req_counter 1

let with_context get set v f =
  let st = state () in
  let prev = get st in
  set st v;
  Fun.protect ~finally:(fun () -> set st prev) f

let with_request ?id f =
  let id = match id with Some id -> id | None -> fresh_request_id () in
  with_context (fun st -> st.req) (fun st v -> st.req <- v) id f

let with_session ~id f =
  with_context (fun st -> st.sess) (fun st v -> st.sess <- v) id f

let next_seq st =
  st.seq <- st.seq + 1;
  st.seq

let dom_id () = (Domain.self () :> int)

let instant ~cat ~name ~args =
  let st = state () in
  {
    Event.seq = next_seq st;
    ts_ns = Clock.now_ns ();
    dom = dom_id ();
    req = st.req;
    sess = st.sess;
    depth = st.depth;
    cat;
    name;
    kind = Event.Instant;
    args;
  }

let enter ~cat ~name ~args emit =
  let st = state () in
  let e =
    {
      Event.seq = next_seq st;
      ts_ns = Clock.now_ns ();
      dom = dom_id ();
      req = st.req;
      sess = st.sess;
      depth = st.depth;
      cat;
      name;
      kind = Event.Span_begin;
      args;
    }
  in
  st.depth <- st.depth + 1;
  emit e;
  { name; cat; t0 = e.Event.ts_ns; a0 = Clock.allocated_bytes () }

let leave sp emit =
  let st = state () in
  let now = Clock.now_ns () in
  let wall_ns = Int64.sub now sp.t0 in
  let alloc_bytes = Clock.allocated_bytes () -. sp.a0 in
  st.depth <- (if st.depth > 0 then st.depth - 1 else 0);
  emit
    {
      Event.seq = next_seq st;
      ts_ns = now;
      dom = dom_id ();
      req = st.req;
      sess = st.sess;
      depth = st.depth;
      cat = sp.cat;
      name = sp.name;
      kind = Event.Span_end { wall_ns; alloc_bytes };
      args = [];
    }
