(** [findgmod] — Figure 2 of the paper: the global-variable problem
    solved by a one-pass extension of Tarjan's strongly-connected
    components algorithm over the call multi-graph.

    Solves equation (4),

    {v GMOD(p) = IMOD+(p) ∪ ⋃_(e=(p,q)) (GMOD(q) ∖ LOCAL(q)) v}

    (set difference restored from the paper's lost overbar, see
    DESIGN.md) in [O(N_C + E_C)] bit-vector steps: the per-edge union
    of line 17 runs once per call edge, and the per-member
    strongly-connected-component adjustment of line 22 runs once per
    procedure.

    The DFS starts at the main procedure (the paper's [search(1)]); any
    procedure not reachable from main is then covered by further
    searches so the result is total, but — exactly as the paper assumes
    — [GMOD] of an unreachable procedure is only meaningful with
    respect to chains starting at it.

    Every solver takes [?pool] and has one body: the pass is scheduled
    as a condensation wavefront, components of the call multi-graph
    (its own condensation, [call.scc]) evaluated level by level, each by a Figure-2 traversal restricted
    to the component and started where the whole-graph DFS first
    enters it.  Scheduling is coarse ({!Par.Wavefront.plan}):
    consecutive singleton levels run inline on the caller without a
    barrier, wide levels are batched by estimated summary size.
    Without a pool every stage runs inline; with one, wide levels run
    concurrently.  Results {e and} the
    [bitvec.vector_ops]/[word_ops] step counts do not depend on the
    pool (see docs/parallel.md).

    On flat programs (no procedure nesting) {!solve} runs the
    propagation over a compact renumbered escape universe — only the
    seeded globals, the only variables a call edge can carry
    (see {!Renumber}) — which makes the fold's word cost track live
    set sizes instead of the full variable universe.  The computed
    sets are identical either way; {!solve_region} always uses the
    full universe so cached vectors stay directly compatible. *)

val solve :
  ?label:string ->
  ?pool:Par.Pool.t ->
  Ir.Info.t -> Callgraph.Call.t -> imod_plus:Bitvec.t array -> Bitvec.t array
(** Per-procedure [GMOD].  Fresh vectors.  Runs under an {!Obs.Span}
    named [label] (default ["gmod"]), whose [bitvec.vector_ops] /
    [bitvec.word_ops] deltas are the paper's bit-vector-step count.
    Seeded with [IUSE+] instead it computes [GUSE] (§2: "the USE
    problem has an analogous solution"); callers pass [~label:"guse"]. *)

val solve_region :
  ?label:string ->
  ?pool:Par.Pool.t ->
  Ir.Info.t ->
  Callgraph.Call.t ->
  seed:Bitvec.t array ->
  dirty:bool array ->
  cached:Bitvec.t array ->
  Bitvec.t array
(** [findgmod] confined to a dirty region.  [dirty] is a set of
    components of [call.scc] (indexed by component id) and must be
    closed under condensation predecessors — the ancestors of every
    component holding a procedure whose seed changed — so a clean
    procedure's fixpoint value is provably [cached].  Runs the
    per-component Figure-2 traversals of the dirty components only,
    level by level, treating each clean successor as an already-closed
    component whose [cached] vector is folded in, and returns a full
    per-procedure array in which clean entries {e share} (not copy)
    their [cached] vectors.  Bit-identical to {!solve} on the new
    seeds, with the operations of a Figure-2 run over the dirty
    subgraph alone.  Cost: the dirty procedures' nodes and out-edges,
    plus one pass over the condensation's levels.  Span default
    ["gmod.region"]. *)
