(** Interprocedural must-modify analysis — the intersection-over-paths
    dual of the paper's [GMOD].

    [MUSTMOD(p)] under-approximates the set of variables an invocation
    of [p] writes on {e every} path to its exit (assuming it
    terminates; non-termination makes every kill claim vacuous, which
    is the sound direction for a kill set).  It is computed on the same
    condensation machinery as the may-side:

    - {b IMUSTDEF}: per procedure, the least fixpoint of the forward
      must-reach system over the body — solved by structural recursion,
      which coincides with the CFG fixpoint because MiniProc control
      flow is fully structured.  Sequences accumulate, conditionals
      contribute the intersection of their branches, loop bodies
      contribute nothing (zero iterations), a [for] header always
      writes its index, and a call contributes the callee's bound
      [MUSTMOD] projected into the caller's frame.
    - {b Propagation}: bottom-up over the call condensation in reverse
      topological component order (callees final before callers);
      cyclic components iterate their members from ∅ to the least
      fixpoint, so recursion only keeps what every unrolling agrees
      on.
    - {b Demotion}: a variable in any §5 alias pair of the procedure
      (pointer-carried and heap-seeded pairs included) is demoted from
      must to may, and the result is capped by [GMOD] — the enforced
      [MUSTMOD(p) ⊆ GMOD(p)] invariant.

    The dataflow layer's call kill sets ({!Dataflow.Transfer} in
    [lib/dataflow]) project these sets per site; docs/mustmod.md has
    the full write-up. *)

type result = {
  prog : Ir.Prog.t;
  mustmod : Bitvec.t array;  (** Final per-procedure [MUSTMOD], by pid. *)
  intra : Bitvec.t array;
      (** Call-free [IMUSTDEF] — definite assignments by the
          procedure's own statements, before demotion.  Grounds the
          provenance forest and is reported as the intraprocedural
          column of [sidefx must]. *)
  demoted : Bitvec.t array;
      (** Per-procedure alias-demoted variables (members of any §5
          pair). *)
  rounds : int;  (** Component-iteration rounds executed. *)
}

type solution = {
  res : result;
  scc : Graphs.Scc.result;  (** Call-graph condensation, cached. *)
  members : int list array;  (** Pids per component. *)
  succs_by_comp : int list array;  (** Caller comp → callee comps. *)
  preds_by_comp : int list array;  (** Callee comp → caller comps. *)
  callers_in_comp : int list array;
      (** Per pid: its callers {e inside} its own component, deduped
          ascending — the worklist re-entry edges of the cyclic-SCC
          iteration. *)
  trivial : bool array;  (** Singleton-without-self-loop components. *)
}
(** A solved instance plus the condensation it was solved on —
    everything {!resolve} needs to push an edit through without
    re-walking the graph. *)

val solve :
  ?label:string ->
  ?pool:Par.Pool.t ->
  Ir.Info.t ->
  Callgraph.Call.t ->
  alias:Alias.t ->
  gmod:Bitvec.t array ->
  result
(** Solve the whole program.  Components are scheduled as a wavefront
    over the condensation levels, inline without [?pool]; per-component
    work does not depend on the pool, so results and counted bit-vector
    op totals are bit-identical at every jobs setting.  Runs under an {!Obs.Span}
    named [label] (default ["mustmod"]) and adds its round count to the
    [mustmod.rounds] registry counter. *)

val solve_cached :
  ?label:string ->
  ?pool:Par.Pool.t ->
  Ir.Info.t ->
  Callgraph.Call.t ->
  alias:Alias.t ->
  gmod:Bitvec.t array ->
  solution
(** As {!solve}, but keeps the condensation artifacts for incremental
    re-solving. *)

val resolve :
  ?label:string ->
  solution ->
  Ir.Info.t ->
  alias:Alias.t ->
  gmod:Bitvec.t array ->
  changed_procs:int list ->
  solution * int list
(** [resolve sol info ~alias ~gmod ~changed_procs] updates a
    cached solution after a body edit that left the call graph's shape
    intact.  Re-derives the edited procedures' own gen and demotion
    sets, then runs change propagation leaves-to-roots over the cached
    condensation (cyclic components re-solve from ∅ — must facts can
    shrink under an edit); the walk stops where recomputed sets come
    out unchanged — the condensation-ancestor cone, pruned.  Returns
    the new solution and the pids whose [MUSTMOD] changed, ascending.
    Equal, bit for bit, to {!solve_cached} on the edited program
    (default span label ["mustmod.region"]). *)

val ground_reasons : result -> Provenance.must_table -> unit
(** Fill a pre-created {!Provenance.must_table} with a first-reason
    derivation forest over the solved facts: a breadth-first search
    from the [Mdef] seeds ([mustmod ∩ intra]) through the call-site
    projections, so reasons are acyclic even inside call cycles.
    Touches bits only through [Bitvec.get] — op-count metrics are
    identical whether or not provenance is on. *)

val mustmod_of : result -> int -> Bitvec.t
(** [MUSTMOD(p)] by pid.  Do not mutate. *)

val intra_of : result -> int -> Bitvec.t
val demoted_of : result -> int -> Bitvec.t

val check_subset : result -> gmod:Bitvec.t array -> bool
(** Does [MUSTMOD(p) ⊆ GMOD(p)] hold for every procedure?  True by
    construction; exported so tests assert the invariant end to end. *)

val pp : Format.formatter -> result -> unit
