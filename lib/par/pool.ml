(* The domain pool. One mutex + two condition variables implement the whole
   protocol:

   - [work] wakes sleeping workers when a job is published (and at
     shutdown);
   - [idle] wakes the submitter when a worker leaves a job, so it can test
     the join condition.

   A job is an atomic claim cursor over [size] items plus a completion
   counter. Workers (and the submitting caller) repeatedly
   [fetch_and_add] the cursor and run the claimed item; the per-item
   closure writes into the item's own slot, which is what makes the merge
   deterministic. The join condition is `all items completed AND no worker
   still inside the job`: the second half guarantees every participating
   worker has drained its metric shard into the job before the submitter
   absorbs the shards and returns. [active] and [shards] are only touched
   under the mutex; the slot writes happen-before the submitter's reads
   via the same mutex (worker: run → lock; submitter: lock → read).
   Events merge the same way: when the submitter traces, each item records
   into its own memory sink, kept beside its slot, and the submitter emits
   them into its sink in submission order after the join. *)

type job = {
  id : int;
  run : int -> unit; (* total: captures exceptions into its slot *)
  size : int;
  cursor : int Atomic.t;
  completed : int Atomic.t;
  mutable active : int; (* workers currently inside this job *)
  mutable shards : Obs.Metric.shard list;
}

type t = {
  total : int;
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  work : Condition.t;
  idle : Condition.t;
  mutable job : job option;
  mutable next_id : int;
  mutable stopping : bool;
  mutable dead : bool;
}

let jobs t = t.total

let participate (j : job) =
  let rec claim () =
    let i = Atomic.fetch_and_add j.cursor 1 in
    if i < j.size then begin
      j.run i;
      ignore (Atomic.fetch_and_add j.completed 1);
      claim ()
    end
  in
  claim ()

let worker_loop t =
  let last = ref (-1) in
  let rec loop () =
    Mutex.lock t.m;
    while
      (not t.stopping)
      && (match t.job with None -> true | Some j -> j.id = !last)
    do
      Condition.wait t.work t.m
    done;
    if t.stopping then Mutex.unlock t.m
    else begin
      let j = match t.job with Some j -> j | None -> assert false in
      last := j.id;
      j.active <- j.active + 1;
      Mutex.unlock t.m;
      participate j;
      Mutex.lock t.m;
      j.shards <- Obs.Metric.drain () :: j.shards;
      j.active <- j.active - 1;
      Condition.broadcast t.idle;
      Mutex.unlock t.m;
      loop ()
    end
  in
  loop ()

let create ?jobs () =
  let total =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      total;
      workers = [];
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      next_id = 0;
      stopping = false;
      dead = false;
    }
  in
  t.workers <- List.init (total - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- [];
  t.dead <- true

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Submission-order slots: item [i]'s outcome lands in [slots.(i)], so the
   returned array is independent of completion order by construction. *)
let map_array t f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let slots = Array.make n None in
    let run i =
      let outcome = try Ok (f items.(i)) with exn -> Error exn in
      slots.(i) <- Some outcome
    in
    if t.total = 1 || n = 1 then
      for i = 0 to n - 1 do
        run i
      done
    else begin
      let sink = Obs.sink () in
      let traces = Array.make n (fun () -> []) in
      let run =
        if Obs.Sink.is_null sink then run
        else fun i ->
          let item_sink, events = Obs.Sink.memory () in
          traces.(i) <- events;
          Obs.with_sink item_sink (fun () -> run i)
      in
      Mutex.lock t.m;
      if t.dead then begin
        Mutex.unlock t.m;
        invalid_arg "Par.Pool.map: pool is shut down"
      end;
      if t.job <> None then begin
        Mutex.unlock t.m;
        invalid_arg "Par.Pool.map: a map is already in flight on this pool"
      end;
      let j =
        {
          id = t.next_id;
          run;
          size = n;
          cursor = Atomic.make 0;
          completed = Atomic.make 0;
          active = 0;
          shards = [];
        }
      in
      t.next_id <- t.next_id + 1;
      t.job <- Some j;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      (* the submitter is the pool's last worker *)
      participate j;
      Mutex.lock t.m;
      while not (Atomic.get j.completed = n && j.active = 0) do
        Condition.wait t.idle t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      List.iter Obs.Metric.absorb j.shards;
      Array.iter (fun events -> List.iter (Obs.Sink.emit sink) (events ())) traces
    end;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error exn) -> raise exn
        | None -> assert false (* every slot written before the join *))
      slots
  end

let map t f items = Array.to_list (map_array t f (Array.of_list items))
