(** A swift-style comparator for the reference-parameter problem.

    The original swift algorithm [CoKe 84, CoKe 87a] solves the
    reference-formal subproblem with bit vectors of length [Nβ] (one
    bit per formal parameter in the program) propagated over the call
    multi-graph by a path-expression elimination.  Reimplementing
    Tarjan's elimination verbatim is out of scope (see DESIGN.md,
    Substitutions); this module preserves the property the paper's
    comparison hinges on — {e every propagation step is a bit-vector
    operation whose length grows with the program} — using a worklist
    over call-graph edges.

    On reducible graphs the worklist converges in a few sweeps, like
    the elimination it replaces, so the measured gap between this and
    {!Core.Rmod}'s single-word steps is a conservative estimate of the
    paper's claimed "order of magnitude".

    Counted costs show in the [bitvec.vector_ops]/[word_ops] counters
    (see {!Bitvec}). *)

val rmod : Callgraph.Binding.t -> imod:Bitvec.t array -> Bitvec.t array
(** Per-procedure bit vector over the variable universe whose set bits
    are the modified by-reference formals of that procedure —
    i.e. [RMOD(p)] in the swift algorithm's own representation. *)

val rmod_as_nodes : Callgraph.Binding.t -> imod:Bitvec.t array -> bool array
(** The same answer converted to β-node indexing, for comparison
    against {!Core.Rmod} and {!Iterative.rmod}. *)
