(** The incremental driver: a program plus its last {!Core.Analyze.t},
    updated in place as {!Edit} values arrive.

    The contract is the one the test suite enforces: after every edit,
    {!analysis} is {e bit-identical} to [Core.Analyze.run] on the
    edited program (the per-result operation counters aside).  What the
    driver buys is locality:

    - a {b body} edit keeps both multi-graphs and their condensations
      (it runs no Tarjan), reruns local analysis for the one edited
      procedure, refolds the nesting cone above it, pushes flipped seed
      bits through the previous β condensation ({!Core.Rmod.resolve}),
      recomputes [IMOD+] for the touched callers, and reruns [findgmod]
      only on the call-graph condensation ancestors of procedures whose
      seeds changed ({!Core.Gmod_nested.solve_region}) — everything
      else is shared with the previous analysis;
    - a {b call-shape} edit additionally rebuilds the two multi-graphs
      and the alias sets (site-table products, linear in the site
      count) and re-solves β in full (cheap single-word booleans), but
      still confines the bit-vector [GMOD]/[GUSE] work to the ancestor
      cone of the edited caller;
    - a {b structural} edit (procedure added/removed — every id
      renumbered) keeps nothing: the same stages run with every
      procedure dirty over a fresh {!Ir.Info.make} — the batch run,
      [2 × n_procs] procedures re-solved.

    There is no size cut-off: however large the dirty cone, [findgmod]
    over it does a subset of the batch walk's work, and the batch run
    would redo every other phase besides.

    Pointers: points-to is a whole-program, flow-insensitive solution,
    so every edit of a program with pointers re-solves it
    ({!Ptsto.analyze}) at the tier of the solution it replaces (an
    adopted Andersen base stays Andersen) and stores the new solution
    in {!analysis}.  When the dereference projection
    ({!Ptsto.same_projection}) and the set of [&x] operands are
    unchanged, the edit takes its body or call-shape path as above;
    when either moved, every cached phase read a stale input, and the
    edit runs with every procedure dirty, as a structural one does.

    The engine never validates the edited program (that would cost the
    [O(N)] it just avoided); callers that accept untrusted edit scripts
    should run {!Ir.Validate} themselves.

    Telemetry: counters [incremental.edits],
    [incremental.procs_resolved] (per-side [GMOD]/[GUSE] procedure
    re-solves); every {!apply} runs under
    an [incremental.resolve] span and records its wall-clock latency in
    the [incremental.edit_s] histogram ({!Obs.Metric.histogram}). *)

type t

type outcome = {
  procs_resolved : int;
      (** Procedures whose [GMOD] or [GUSE] vector was recomputed (each
          side counted; [2 × n_procs] when every procedure is dirty). *)
}

val create : ?pool:Par.Pool.t -> Ir.Prog.t -> t
(** {!of_analysis} of a fresh [Core.Analyze.run] (without provenance,
    Steensgaard points-to).  [?pool], when given, is retained for the
    engine's lifetime and reused by the initial analysis and by every
    {!apply}'s solvers; the pool remains owned by the caller (the
    engine never shuts it down). *)

val of_analysis : ?pool:Par.Pool.t -> Core.Analyze.t -> t
(** Adopt an already-solved batch result instead of re-running it:
    only the caches are built (local set re-derivation and the
    [RMOD]-site projections — no solver runs; the [RMOD]/[RUSE]/
    [MUSTMOD] condensations come with the record).  The adopted record is
    treated as read-only: until the first {!apply} the engine answers
    queries straight from it, and every edit replaces the engine's
    analysis wholesale, so several engines may adopt one shared record
    concurrently (the analysis server gives each client session its
    own engine over one registry entry this way).  Provenance upkeep
    is inherited from the record: iff [analysis.provenance] is
    [Some _], every {!apply} keeps (body edit) or re-records (any
    other edit) the alias reasons and attaches a lazy derivation
    forest over the updated solutions ({!Core.Analyze.with_provenance},
    as the batch run does), so witnesses never go stale.  The edit
    itself builds no forest: the first {!Core.Analyze.provenance_forest}
    read does, for the set bits of the solutions plus, for each fact,
    the call sites of its procedure. *)

val apply : t -> Edit.t -> outcome
(** Apply one edit and bring {!analysis} up to date.  Raises
    [Invalid_argument] (from {!Ir.Patch}) on structurally impossible
    edits, leaving the engine untouched. *)

val analysis : t -> Core.Analyze.t
val prog : t -> Ir.Prog.t

val edits_applied : t -> int

val lint : ?rules:Lint.Rule.t list -> t -> Lint.Diagnostic.t list
(** Findings for the current {!analysis} (default: every rule), at
    dummy source positions — edits renumber ids, so edited programs
    have no spans, and the pre-edit run uses dummies too so that the
    result is bit-identical to a batch [Lint.Engine.run] on the same
    program.  Cached until the next {!apply} (keyed on the edit count
    and the rule-name list); [sidefx edit --lint] calls this around
    every edit to report diagnostic deltas ({!Lint.Engine.delta}) and
    pays one lint pass per distinct program version.

    Statement-level rules (dead-store, rmw-hint) reuse a
    {!Dataflow.Driver.t} held by the engine: body edits only drop the
    solutions of the edited procedure and of callers whose callee
    summaries actually changed; call-shape and structural edits drop
    the cache (sites renumber).  Findings stay bit-identical to the
    batch run either way — the cache can only skip recomputing answers
    whose inputs are unchanged. *)
