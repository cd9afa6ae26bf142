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

    {!findgmod} is the tree's one such traversal, generic in the
    lattice ({!ops}) and solving [dP] nesting problems at once (end of
    §4; [dP = 1] on flat programs).  Its instances: {!solve} and
    {!solve_region} below, the multi-level {!Gmod_nested.solve} and
    the sectioned [Sections.Gmod_sections.solve] (§6).  It runs as a
    condensation wavefront ({!Par.Wavefront.resolve}, the tree's one
    propagation driver): the components of [call.scc] level by level,
    each traversed from where the whole-graph DFS first enters it;
    with a pool, wide levels run concurrently.  A region re-solve is
    the same run over a cone.  Results {e and} the [bitvec.vector_ops]/[word_ops]
    step counts do not depend on the pool (see docs/parallel.md).

    On flat programs (no procedure nesting) {!solve} runs the
    propagation over a compact renumbered escape universe — only the
    seeded globals, the only variables a call edge can carry
    (see {!Renumber}) — which makes the fold's word cost track live
    set sizes instead of the full variable universe.  The computed
    sets are identical either way; {!solve_region} always uses the
    full universe so cached vectors stay directly compatible. *)

type ops = {
  fold : src:int -> dst:int -> lim:int -> unit;
      (** Line 17: fold the value of [src] into [dst] along a call edge
          (or the tree edge back to [dst]) whose callee's level limit
          is [lim]. *)
  close : root:int -> level:int -> int -> unit;
      (** Lines 19-25: [close ~root ~level] is called once when [root]
          closes a component of problem [level]; the function it
          returns is applied to each popped member, [root] last. *)
}
(** What a [findgmod] instance supplies, once per pool slot. *)

val findgmod :
  Par.Pool.t option ->
  Callgraph.Call.t ->
  seeds:Par.Wavefront.seeds ->
  dp:int ->
  lim:(int -> int) ->
  cost:(int -> int) ->
  enter:(int -> unit) ->
  (slot:int -> ops) ->
  int list
(** Runs, through {!Par.Wavefront.resolve}, the components of
    [call.scc] that [seeds] names and all their condensation ancestors
    (every component with [All]), for [dp] problems: problem [i] keeps
    the edges into callees [q] with [lim q >= i] ([1 <= lim q <= dp]).
    [enter v] is called when the traversal first reaches [v] (line 8 of
    Figure 2), before any fold into it.  An edge into a component
    outside the run folds as final; a self-edge is folded, as Figure 2
    folds it.  [cost c] weighs component [c] for batching; [ops] is
    called once per pool slot.  Returns the components run. *)

val solve_vectors :
  Par.Pool.t option ->
  Callgraph.Call.t ->
  seed:Bitvec.t array ->
  region:(int list * Bitvec.t array) option ->
  dp:int ->
  lim:(int -> int) ->
  (Bitvec.t array -> slot:int -> ops) ->
  Bitvec.t array * int list
(** {!findgmod} over copies of the seeds, components weighed by live
    seed size; returns the vectors and the procedures re-solved.  With
    [Some (procs, cached)] only the condensation-ancestor cone of
    [procs] runs (see {!solve_region}); entries outside it share
    [cached]. *)

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
  ?pool:Par.Pool.t ->
  Ir.Info.t ->
  Callgraph.Call.t ->
  seed:Bitvec.t array ->
  seeds:int list ->
  cached:Bitvec.t array ->
  Bitvec.t array * int list
(** [findgmod] confined to the procedures [seeds] whose seed (or
    out-edge set) changed and their condensation ancestors in
    [call.scc] — so every procedure outside that cone provably keeps
    its [cached] value.  Runs the per-component Figure-2 traversals of
    the cone only, level by level, treating each successor outside it
    as an already-closed component whose [cached] vector is folded in,
    and returns a full per-procedure array in which entries outside
    the cone {e share} (not copy) their [cached] vectors, plus the
    cone's procedures.  Bit-identical to {!solve} on the new seeds,
    with the operations of a Figure-2 run over the cone alone.  Cost:
    the cone's nodes and out-edges.  Runs under the span
    ["gmod.region"]. *)
