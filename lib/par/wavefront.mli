(** Condensation-wavefront execution.

    Both [findgmod] (Figure 2) and the RMOD pass (Figure 1) factor
    through a strongly-connected-component condensation whose
    reverse-topological {e levels} are embarrassingly parallel: a
    component only reads values of components it has edges into, all
    of which sit at strictly smaller levels.  The condensation and its
    levels come with the graph ({!Graphs.Scc.t}, built once by
    {!Callgraph.Call.build} and {!Callgraph.Binding.build}); this
    module only turns levels into a plan and runs it.  The wavefront
    evaluates level 0 (the sinks) first, then each successive level —
    with a pool, as {!Pool} batches whose join is the barrier that
    makes every lower-level result (and its operation counts) visible;
    without one, inline on the caller.  Work {e inside} a component is
    left to the caller and stays sequential per task, so a solver has
    one body whose results and step counts do not depend on the pool
    (see docs/parallel.md). *)

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
  n_levels : int;  (** Levels of the underlying {!Graphs.Scc.levels}. *)
  fused_levels : int;  (** Singleton levels absorbed into [Seq] stages. *)
  n_batches : int;  (** Total batches across [Par] stages. *)
  mean_batch_cost : float;  (** Mean estimated cost per [Par] batch. *)
  chain : bool;
      (** No [Par] stage at all — the condensation is effectively a
          chain and parallel execution has nothing to win. *)
  max_width : int;  (** Copied from the underlying {!Graphs.Scc.levels}. *)
}

val plan : Graphs.Scc.levels -> jobs:int -> cost:(int -> int) -> plan
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

(** {1 Propagation}

    Every leaves-to-roots solver over a condensation — Figure 1's step
    3 (RMOD, RUSE), MUSTMOD, [findgmod] — is one transfer per
    component run by {!resolve}.  A batch solve is the edit with every
    component dirty. *)

type seeds =
  | All  (** Every component: a batch solve. *)
  | Comps of int list
      (** The components whose own input changed (duplicates allowed). *)

val resolve :
  Pool.t option ->
  Graphs.Scc.t ->
  seeds:seeds ->
  cost:(int -> int) ->
  f:(slot:int -> comp:int -> bool) ->
  int list
(** [resolve pool scc ~seeds ~cost ~f] walks the seeds'
    condensation-ancestor cone along [scc.preds] (iteratively; the walk
    and the grouping cost the cone and its edges, beside two mark
    arrays over the components), groups it by [scc.levels.level] and
    runs it as a {!plan} ([cost] as there).
    [f ~slot ~comp] is called only for a seed or for a component one of
    whose successors changed, and answers whether the component's value
    moved; so a cone component whose inputs all came out unchanged is
    skipped.  [f] has {!run_plan}'s ownership rules.  Returns the
    components for which [f] answered [true], lowest level first,
    ascending within a level.  With [All] every component runs (cost
    [O(N + E)] of the condensation plus [f]). *)
