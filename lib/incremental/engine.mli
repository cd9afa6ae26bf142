(** The incremental driver: a program plus its last {!Core.Analyze.t},
    updated in place as {!Edit} values arrive.

    The contract is the one the test suite enforces: after every edit,
    {!analysis} is {e bit-identical} to [Core.Analyze.run] on the
    edited program (the per-result operation counters aside).  What the
    driver buys is locality:

    - a {b body} edit reruns local analysis for the one edited
      procedure, refolds the nesting cone above it, pushes flipped seed
      bits through the previous β condensation ({!Core.Rmod.resolve}),
      recomputes [IMOD+] for the touched callers, and reruns [findgmod]
      only on the call-graph condensation ancestors of procedures whose
      seeds changed ({!Core.Gmod.solve_region}) — everything else is
      shared with the previous analysis;
    - a {b call-shape} edit additionally rebuilds the two multi-graphs
      and the alias sets (site-table products, linear in the site
      count) and re-solves β in full (cheap single-word booleans), but
      still confines the bit-vector [GMOD]/[GUSE] work to the ancestor
      cone of the edited caller;
    - a {b structural} edit (procedure added/removed — every id
      renumbered), a dirty cone larger than [threshold × n_procs], or
      a program nesting deeper than one level at the [GMOD] stage,
      falls back to a full [Core.Analyze.run].

    The engine never validates the edited program (that would cost the
    [O(N)] it just avoided); callers that accept untrusted edit scripts
    should run {!Ir.Validate} themselves.

    Telemetry: counters [incremental.edits],
    [incremental.procs_resolved] (per-side [GMOD]/[GUSE] procedure
    re-solves), [incremental.full_fallbacks]; every {!apply} runs under
    an [incremental.resolve] span and records its wall-clock latency in
    the [incremental.edit_s] histogram ({!Obs.Metric.histogram}). *)

type t

type outcome = {
  fallback : string option;
      (** [Some reason] when the edit took the full-re-analysis path. *)
  procs_resolved : int;
      (** Procedures whose [GMOD] or [GUSE] vector was recomputed (each
          side counted; [2 × n_procs] for a full run). *)
}

val create :
  ?threshold:float -> ?pool:Par.Pool.t -> ?provenance:bool -> Ir.Prog.t -> t
(** Analyze from scratch and prime the caches.  [threshold] (default
    [0.5]) is the dirty-cone fraction above which {!apply} abandons the
    region path.  [?pool], when given, is retained for the engine's
    lifetime and reused by the initial analysis, every full-fallback
    re-analysis, and the region [GMOD]/[GUSE] cone re-solves; the pool
    remains owned by the caller (the engine never shuts it down).
    [?provenance] (default [false]) keeps a {!Core.Provenance}
    derivation forest alive across edits: after every {!apply} the
    forest is rebuilt against the updated solutions (a post-pass
    linear in the fact count — the cone re-solve itself is unchanged),
    so witnesses never go stale. *)

val of_analysis : ?threshold:float -> ?pool:Par.Pool.t -> Core.Analyze.t -> t
(** Adopt an already-solved batch result instead of re-running it:
    only the caches are built (local set re-derivation and the
    [RMOD]-site projections — no solver runs; the [RMOD]/[RUSE]/
    [MUSTMOD] condensations come with the record).  The adopted record is
    treated as read-only: until the first {!apply} the engine answers
    queries straight from it, and every edit replaces the engine's
    analysis wholesale, so several engines may adopt one shared record
    concurrently (the analysis server gives each client session its
    own engine over one registry entry this way).  Provenance upkeep
    is inherited from the record: it stays live across edits iff
    [analysis.provenance] is [Some _]. *)

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
