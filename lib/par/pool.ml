(* A reusable pool of worker domains executing task batches.  See
   pool.mli for the contract.  Stdlib only: Domain + Mutex/Condition.

   One mutex guards all shared state.  A batch is published by bumping
   [batch] and broadcasting [work]; workers (and the caller, which
   participates) claim tasks by advancing the [next] cursor under the
   mutex and run them with the mutex released.  The caller blocks on
   [donec] until [unfinished] reaches zero.  That join is the
   synchronisation point the rest of the repository relies on: every
   write a task made (result arrays, sharded Obs counters)
   happens-before anything the caller does after [run] returns. *)

let tasks_metric = Obs.Metric.counter "par.tasks"
let batches_metric = Obs.Metric.counter "par.batches"

type t = {
  jobs : int;
  mu : Mutex.t;
  work : Condition.t;  (* workers: a new batch is available *)
  donec : Condition.t;  (* caller: the current batch completed *)
  mutable tasks : (int -> unit) array;
  mutable next : int;
  mutable unfinished : int;
  mutable batch : int;
  mutable stop : bool;
  mutable error : exn option;
  mutable domains : unit Domain.t list;
  mutable spawned : bool;
}

let effective_jobs jobs =
  if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs

let jobs t = t.jobs
let spawned t = t.spawned

(* Claim-and-run loop over the current batch.  Called with [t.mu] held;
   returns with it held. *)
let drain t slot =
  while t.next < Array.length t.tasks do
    let i = t.next in
    t.next <- i + 1;
    Mutex.unlock t.mu;
    (try t.tasks.(i) slot
     with e ->
       Mutex.lock t.mu;
       if t.error = None then t.error <- Some e;
       Mutex.unlock t.mu);
    Mutex.lock t.mu;
    t.unfinished <- t.unfinished - 1;
    if t.unfinished = 0 then Condition.broadcast t.donec
  done

let rec worker_loop t slot seen_batch =
  Mutex.lock t.mu;
  while (not t.stop) && t.batch = seen_batch do
    Condition.wait t.work t.mu
  done;
  if t.stop then Mutex.unlock t.mu
  else begin
    let b = t.batch in
    drain t slot;
    Mutex.unlock t.mu;
    worker_loop t slot b
  end

let create ~jobs =
  let jobs = max 1 jobs in
  {
    jobs;
    mu = Mutex.create ();
    work = Condition.create ();
    donec = Condition.create ();
    tasks = [||];
    next = 0;
    unfinished = 0;
    batch = 0;
    stop = false;
    error = None;
    domains = [];
    spawned = false;
  }

(* Worker domains spawn on the first batch that can actually use them.
   A pool whose every batch turns out to be sequential (singleton
   batches, or a chain-shaped condensation whose plan has no parallel
   stage at all — see Wavefront.plan) never pays domain startup. *)
let ensure_spawned t =
  if not t.spawned then begin
    t.spawned <- true;
    t.domains <-
      List.init (t.jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1) t.batch))
  end

let run t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if t.jobs <= 1 then Array.iter (fun f -> f 0) tasks
  else if n = 1 then begin
    (* A one-task batch has no parallelism to exploit: run it on the
       caller, skipping both domain startup and the batch handshake. *)
    Obs.Metric.incr batches_metric;
    Obs.Metric.incr tasks_metric;
    tasks.(0) 0
  end
  else begin
    Obs.Metric.incr batches_metric;
    Obs.Metric.add tasks_metric n;
    ensure_spawned t;
    Mutex.lock t.mu;
    t.tasks <- tasks;
    t.next <- 0;
    t.unfinished <- n;
    t.batch <- t.batch + 1;
    Condition.broadcast t.work;
    drain t 0;
    while t.unfinished > 0 do
      Condition.wait t.donec t.mu
    done;
    t.tasks <- [||];
    let err = t.error in
    t.error <- None;
    Mutex.unlock t.mu;
    match err with Some e -> raise e | None -> ()
  end

let slots = function None -> 1 | Some t -> t.jobs

let chunked pool n f =
  if n > 0 then
    match pool with
    | None -> f ~slot:0 ~lo:0 ~hi:n
    | Some t ->
      (* A few chunks per worker balances uneven per-index costs without
         paying per-index scheduling. *)
      let chunk = max 1 ((n + (t.jobs * 4) - 1) / (t.jobs * 4)) in
      let n_tasks = (n + chunk - 1) / chunk in
      run t
        (Array.init n_tasks (fun ti slot ->
             f ~slot ~lo:(ti * chunk) ~hi:(min n ((ti + 1) * chunk))))

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let jobs = effective_jobs jobs in
  if jobs <= 1 then f None
  else begin
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f (Some t))
  end
