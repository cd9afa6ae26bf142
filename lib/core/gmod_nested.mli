(** The multi-level nesting extension of [findgmod] (end of §4).

    With procedures declared at nesting levels up to [dP], the
    two-level global/local split no longer holds: what is local to one
    procedure is global to the procedures nested in it.  The paper's
    remedy is to solve [dP] problems simultaneously, where problem [i]
    accounts for effects along call chains that never invoke a
    procedure declared at a level shallower than [i] — i.e. it is
    defined on the sub-multi-graph [C_i] of [C] that drops every edge
    whose callee's declaration level is [< i] — and to read off, from
    problem [i], the fate of the variables declared at level [i - 1]
    (they are the "globals" of that problem: no procedure present in
    [C_i] can own them).

    Two implementations:

    - {!solve_by_levels} runs Figure 2 once per level —
      [O(dP · (E + N))] bit-vector steps — and unions the masked
      results.  It is the reference implementation and the baseline of
      the C1 ablation.
    - {!solve} is the paper's single-pass refinement: the one
      {!Gmod.findgmod} instance {!Gmod.solve_escape} with [dP]
      problems — a {e vector} of lowlink values per node (one per
      level), per-level stacks, per-edge unions masked to the variable
      levels the traversed edge can carry, and a suffix-min correction
      of the lowlink vector at node completion — [O(E + dP · N)]
      bit-vector steps.  It runs for every program, flat ones at
      [dP = 1], batch and region ({!solve_region}) alike, per component
      through the condensation wavefront, so it takes [?pool].

    Both compute, for every procedure [p],
    [GMOD(p) = IMOD+(p) ∪ ⋃_i (problem-i solution at p, masked to
    level-(i-1) variables)], and agree with the chaotic-iteration
    fixpoint of equation (4) on scope-correct programs (MiniProc's
    semantic analysis guarantees scope-correctness; on hand-built
    [Ir.Prog] values that violate static scoping the masked problems
    are not meaningful).

    For [dP = 1] both reduce to Figure 2 over the level-0 variables:
    a procedure's own variables stay in its [GMOD] only, and so does a
    local of another procedure that a dereference names.  Without
    such dereferences that is {!Gmod.solve}'s answer. *)

val solve :
  ?label:string ->
  ?pool:Par.Pool.t ->
  Ir.Info.t -> Callgraph.Call.t -> imod_plus:Bitvec.t array -> Bitvec.t array
(** Single-pass algorithm, [O(E + dP·N)] bit-vector steps.  Runs under
    an {!Obs.Span} named [label] (default ["gmod"], matching {!Gmod.solve}
    so profiles key on one phase name).  Results and op counts
    do not depend on [?pool]. *)

val solve_region :
  ?pool:Par.Pool.t ->
  Ir.Info.t ->
  Callgraph.Call.t ->
  seed:Bitvec.t array ->
  seeds:int list ->
  cached:Bitvec.t array ->
  Bitvec.t array * int * int list
(** {!solve} confined to the condensation-ancestor cone of [seeds],
    with the region contract of {!Gmod.solve_escape}: entries outside the
    cone share their [cached] vector, and the vectors are bit-identical
    to {!solve} on the new seeds.  Returns the vectors, the number of
    procedures in the cone and the procedures whose vector changed
    (ascending within each component, components leaves first).  With
    no [seeds] it returns [cached] itself and runs nothing.  The
    re-solve runs under the span ["gmod.region"]; the comparison with
    [cached] (one [Bitvec.equal] per cone member) runs outside it. *)

val solve_by_levels :
  ?pool:Par.Pool.t ->
  Ir.Info.t -> Callgraph.Call.t -> imod_plus:Bitvec.t array -> Bitvec.t array
(** Per-level repetition of Figure 2, [O(dP·(E+N))] bit-vector steps.
    Span ["gmod.by_levels"].  [?pool] is forwarded to each
    level's {!Gmod.solve}; the per-level loop itself is sequential
    (each [C_i] is an independent problem, but the masked unions fold
    into one shared result array). *)
