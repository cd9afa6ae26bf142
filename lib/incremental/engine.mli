(** The incremental driver: a program plus its last {!Core.Analyze.t},
    updated in place as {!Edit} values arrive.

    The contract is the one the test suite enforces: after every edit,
    {!analysis} is {e bit-identical} to [Core.Analyze.run] on the
    edited program (the per-result operation counters aside).  The
    engine holds no copy of the pipeline: every edit runs
    {!Core.Analyze.solve}, the stages [Core.Analyze.run] runs, and
    what the engine buys is the previous analysis it passes:

    - a {b body} edit passes it with the edited procedure, and the
      solve keeps both multi-graphs and their condensations (it runs
      no Tarjan), re-solves only the cones above the edited procedure
      and shares everything else with the previous analysis;
    - a {b call-shape} edit passes it with the edited caller and the
      new program's site index; the solve additionally rebuilds the
      two multi-graphs, the alias sets and [MUSTMOD] and re-solves β
      in full, but still confines the bit-vector [GMOD]/[GUSE] work to
      the ancestor cone of the edited caller;
    - a {b structural} edit (procedure added/removed — every id
      renumbered) passes none: the solve runs over a fresh
      {!Ir.Info.make}, which is the batch run, with the same counted
      operations, [2 × n_procs] procedures re-solved.

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
    when either moved, every previous vector read a stale input, and
    the edit passes no previous analysis, as a structural one does.

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
(** Adopt an already-solved batch result instead of re-running it.
    Adoption computes nothing: every family an edit diffs against
    (the local sets before and after the nesting fold, the [RMOD]
    site projections, the [RMOD]/[RUSE]/[MUSTMOD] condensations) comes
    with the record, and the site index is built by the first edit
    that needs it.  The adopted record is
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
