(** Condensation-wavefront scheduling.

    Both [findgmod] (Figure 2) and the RMOD pass (Figure 1) factor
    through a strongly-connected-component condensation whose
    reverse-topological {e levels} are embarrassingly parallel: a
    component only reads values of components it has edges into, all
    of which sit at strictly smaller levels.  The wavefront schedule
    evaluates level 0 (the sinks) first, then each successive level —
    with a pool, as {!Pool} batches whose join is the barrier that
    makes every lower-level result (and its operation counts) visible;
    without one, inline on the caller.  Work {e inside} a component is
    left to the caller and stays sequential per task, so a solver has
    one body whose results and step counts do not depend on the pool
    (see docs/parallel.md). *)

type levels = {
  level : int array;  (** Per component. *)
  n_levels : int;
  by_level : int array array;
      (** Components of each level, ascending component id. *)
  max_width : int;
      (** Largest level population — the available parallelism. *)
}

val of_comp_succs : n_comps:int -> succs_of:(int -> int list) -> levels
(** Level a condensation given per-component successor lists.
    Component ids must be reverse-topological (every inter-component
    edge points to a smaller id — what {!Graphs.Scc.compute} and
    {!schedule} produce); duplicate edges and self-loops are ignored.
    [level.(c) = 1 + max] over successors, [0] at sinks.  O(N + E). *)

type schedule = {
  n_comps : int;
  comp : int array;  (** Component per node; [-1] for inactive nodes. *)
  entry : int array;
      (** Per component: the node at which one whole-graph Figure-2
          DFS — [first_root] first, then index order — first enters
          the component.  Starting a per-component traversal there
          replays that DFS's visit order inside the component. *)
  levels : levels;
}

val schedule :
  n:int ->
  ?active:(int -> bool) ->
  first_root:int ->
  succs:int array array ->
  unit ->
  schedule
(** Tarjan over the active subgraph in the visit order of the paper's
    whole-graph [search] ([first_root] first, then index order), plus
    the leveling of the resulting condensation.
    [succs] rows of inactive nodes are never read; edges to inactive
    nodes are skipped.  Graph work only — performs no bit-vector
    operations, so it adds nothing to the paper's step counts. *)

(** {1 Coarse plans}

    One barrier per level, chunked by component count, is too fine
    when the condensation is deep and narrow (long singleton runs) or
    when components differ wildly in cost.  A {!plan} coarsens both
    axes: consecutive singleton levels
    fuse into one sequential stage that runs inline on the caller (no
    barrier, no task), and each genuinely wide level is split into at
    most [2 * jobs] batches balanced by a caller-supplied cost
    estimate (e.g. {!Bitvec.live_estimate} of the seeds) instead of
    node count.  A plan whose stages are all sequential ([chain =
    true]) never touches the pool at all — combined with lazy domain
    spawn in {!Pool}, [--jobs N] on a chain-shaped program costs
    nothing. *)

type batch = { comps : int array; cost : int }

type stage =
  | Seq of int array
      (** A fused run of consecutive singleton levels, in level order;
          executed inline on the caller, without a barrier. *)
  | Par of batch array  (** One level, cost-balanced into batches. *)

type plan = {
  stages : stage array;
  n_levels : int;  (** Levels of the underlying {!levels}. *)
  fused_levels : int;  (** Singleton levels absorbed into [Seq] stages. *)
  n_batches : int;  (** Total batches across [Par] stages. *)
  mean_batch_cost : float;  (** Mean estimated cost per [Par] batch. *)
  chain : bool;
      (** No [Par] stage at all — the condensation is effectively a
          chain and parallel execution has nothing to win. *)
  max_width : int;  (** Copied from the underlying {!levels}. *)
}

val plan : levels -> jobs:int -> cost:(int -> int) -> plan
(** Build a coarse execution plan.  [cost c] estimates the work of
    component [c] (clamped to at least 1); batching is deterministic —
    heaviest-first into the lightest batch, ties by component id and
    batch index — so two runs over the same inputs produce the same
    plan regardless of pool size or machine. *)

val run_plan :
  Pool.t option -> plan -> f:(slot:int -> comp:int -> unit) -> unit
(** Execute a plan: [Seq] stages inline on the caller (slot 0), each
    [Par] stage as one {!Pool.run} batch with one task per cost
    batch.  [f] must only write state owned by [comp] and only read
    state of strictly lower levels, plus per-[slot] scratch.  With
    [None], every stage runs inline on the caller in stage order —
    the same calls, so a solver written once over [run_plan] is its
    own sequential version. *)
