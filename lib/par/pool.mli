(** A reusable pool of worker domains executing task batches.

    [create ~jobs] sizes the pool at [jobs] workers; the [jobs - 1]
    worker domains spawn lazily, on the first batch with more than one
    task (so a pool that only ever sees sequential work costs
    nothing); [run] publishes an array of tasks, participates in
    executing them on the calling domain, and returns once every task
    has finished.  Tasks within a batch run concurrently in unspecified
    order, so they must write disjoint state; consecutive batches are
    totally ordered — the batch join is a synchronisation point, so
    every write made by a task (result arrays, sharded {!Obs.Metric}
    counters) happens-before anything the caller does after [run]
    returns.  This is exactly the barrier discipline the
    condensation-wavefront scheduler ({!Wavefront}) needs: one batch
    per topological level.

    Counters [par.tasks] and [par.batches] record scheduling volume
    (per parallel batch; the [jobs = 1] in-line path counts nothing). *)

type t

val create : jobs:int -> t
(** A pool of [max 1 jobs] total workers (the caller counts as worker
    0).  The [jobs - 1] worker domains are not spawned here but on the
    first {!run} whose batch has two or more tasks.  Call {!shutdown}
    when done; a pool whose owner exits without shutdown leaves its
    domains blocked on the queue, which is safe but unjoined. *)

val jobs : t -> int
(** Total parallelism, caller included.  Task slot indices are
    [0 .. jobs t - 1]. *)

val spawned : t -> bool
(** Whether the worker domains have started — i.e. whether any batch
    so far actually had parallelism to exploit.  Observability only. *)

val run : t -> (int -> unit) array -> unit
(** [run t tasks] executes every task and returns when all are done.
    Each task receives the {e slot} of the worker running it — a stable
    index in [0 .. jobs t - 1] — for indexing per-worker scratch
    state.  If tasks raise, one of the exceptions is re-raised in the
    caller after the whole batch has drained.  With [jobs t = 1], or
    for a single-task batch, the tasks simply run in order on the
    calling domain (a single-task batch still counts towards
    [par.tasks]/[par.batches]).  Not reentrant: tasks must not call
    [run] on their own pool. *)

val slots : t option -> int
(** Worker slots a solve over [pool] may see: {!jobs} of the pool, [1]
    without one.  Size per-slot scratch with this. *)

val chunked : t option -> int -> (slot:int -> lo:int -> hi:int -> unit) -> unit
(** [chunked pool n f] covers the index range [0 .. n - 1] with calls
    [f ~slot ~lo ~hi] on disjoint half-open ranges.  With a pool, one
    {!run} batch of about [4 * jobs] chunks; with [None], the single
    call [f ~slot:0 ~lo:0 ~hi:n] on the caller.  Calls must write
    disjoint state, or per-[slot] state. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)

val effective_jobs : int -> int
(** The CLI convention: [0] means [Domain.recommended_domain_count ()],
    anything else is clamped to at least 1. *)

val with_pool : jobs:int -> (t option -> 'a) -> 'a
(** [with_pool ~jobs f]: applies {!effective_jobs}, then runs [f None]
    when the result is 1 (the solvers then run their one code path
    inline on the caller), or [f (Some pool)] with shutdown guaranteed
    afterwards. *)
