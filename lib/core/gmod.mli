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
    §4; [dP = 1] on flat programs).  It runs as a condensation
    wavefront ({!Par.Wavefront.resolve}, the tree's one propagation
    driver): the components of [call.scc] level by level, each
    traversed from where the whole-graph DFS first enters it; with a
    pool, wide levels run concurrently.  A region re-solve is the same
    run over a cone.  Results {e and} the
    [bitvec.vector_ops]/[word_ops] step counts do not depend on the
    pool (see docs/parallel.md).

    Every GMOD and GUSE runs through one bit-vector instance of it,
    {!solve_escape}, in escape form: each vector holds only the part of
    [GMOD(p)] a call edge can carry, seeded with [IMOD+(p) ∩
    non_local(p)], and [IMOD+(p)] is put back at the end.  At [dP = 1]
    without level masks it is plain Figure 2 ({!solve}); the
    multi-level {!Gmod_nested.solve} and its region form run it at
    [dP = max 1 max_level].  The sectioned
    [Sections.Gmod_sections.solve] (§6) is the other instance of
    {!findgmod}. *)

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
    outside the run folds as final; a self-edge reaches [fold] too, as
    Figure 2 folds it (an instance may skip it).  [cost c] weighs
    component [c] for batching; [ops] is called once per pool slot.
    Returns the components run. *)

val solve_escape :
  ?region:int list * Bitvec.t array ->
  ?pool:Par.Pool.t ->
  levels:bool ->
  Ir.Info.t ->
  Callgraph.Call.t ->
  seed:Bitvec.t array ->
  Bitvec.t array * int list
(** Equation (4) over bit vectors, seeded with [seed] ([IMOD+] or
    [IUSE+]): fresh vectors, and the procedures re-solved.  Each vector
    starts as the part of [seed(p)] a fold can carry, [seed(p) ∩
    non_local(p)]; a fold carries the callee's value less [LOCAL] of
    the callee, and the result is [seed(p)] united with what arrived,
    in place.  A self-edge is not folded, nor a component's root into
    itself at its close: neither changes a bit.  With [~levels:false]
    it solves one problem (Figure 2).  With [~levels:true] it solves
    the [dP = max 1 max_level] problems of the multi-level form, each
    fold and close masked to the variable levels its problem owns; no
    strip keeps a variable of level [>= dP], so the seed drops those
    too.  At [dP = 1] that mask keeps level 0 alone, which no
    procedure holds in [LOCAL], so every value the run computes
    crosses an edge as it is: one union per edge.

    With [~region:(procs, cached)] only the condensation-ancestor cone
    of [procs] runs: the procedures whose seed (or out-edge set)
    changed and every procedure that reaches them.  Each successor
    outside the cone is an already-closed component whose [cached]
    vector is folded in; entries outside the cone {e share} (not copy)
    their [cached] vectors.  Bit-identical to the batch run on the new
    seeds, with the operations of a Figure-2 run over the cone alone.
    Cost: the cone's nodes and out-edges.  Components are weighed by
    live seed size for batching. *)

val solve :
  ?pool:Par.Pool.t ->
  Ir.Info.t -> Callgraph.Call.t -> imod_plus:Bitvec.t array -> Bitvec.t array
(** Per-procedure [GMOD] by plain Figure 2: {!solve_escape} with
    [~levels:false].  Fresh vectors.  Runs under an {!Obs.Span} named
    ["gmod"], whose [bitvec.vector_ops] / [bitvec.word_ops] deltas are
    the paper's bit-vector-step count.  Seeded with [IUSE+] instead it
    computes [GUSE] (§2: "the USE problem has an analogous
    solution").  The analysis runs {!Gmod_nested.solve}, which on a
    program without nesting or dereferences returns the same sets. *)
