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
      topological component order (callees final before callers).  A
      component's members start at ∅ and grow one derived fact at a
      time, each fact at most once per body root or [if] branch, up to
      the least fixpoint, so recursion only keeps what every unrolling
      agrees on.
    - {b Demotion}: a variable in any §5 alias pair of the procedure
      (pointer-carried and heap-seeded pairs included) is demoted from
      must to may, and the result is capped by [GMOD] — the enforced
      [MUSTMOD(p) ⊆ GMOD(p)] invariant.

    The dataflow layer's call kill sets ({!Dataflow.Transfer} in
    [lib/dataflow]) project these sets per site; docs/mustmod.md has
    the full write-up. *)

type state
(** The call graph the solve ran on (its condensation, [call.scc], is
    the one GMOD and GUSE share) plus the per-procedure frames and the
    MUSTMOD values in frame coordinates — everything {!resolve} needs,
    besides the new [gmod] and alias demotions, to push an edit through
    without re-walking the graph. *)

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
  rounds : int;
      (** Members solved: one per member per component solve, so a
          batch solve reads the number of procedures. *)
  state : state;
}

val solve :
  ?pool:Par.Pool.t ->
  Ir.Info.t ->
  Callgraph.Call.t ->
  alias:Alias.t ->
  gmod:Bitvec.t array ->
  result
(** Solve the whole program.  The program must pass {!Ir.Validate}: the
    per-procedure frames rely on every call naming a procedure in scope
    at the call site.  The component solver runs through
    {!Par.Wavefront.resolve} with every component dirty, inline without
    [?pool]; per-component work does not depend on the pool, so results
    and counted bit-vector op totals are bit-identical at every jobs
    setting.  Runs under an {!Obs.Span} named ["mustmod"], adds its
    round count to the [mustmod.rounds] registry counter and the facts
    it derived to [mustmod.facts]: each derived fact is a point
    operation, which [bitvec.word_ops] does not see. *)

val resolve :
  ?pool:Par.Pool.t ->
  result ->
  Ir.Info.t ->
  alias:Alias.t ->
  gmod:Bitvec.t array ->
  changed_procs:int list ->
  result
(** [resolve r info ~alias ~gmod ~changed_procs] updates a solved
    instance after a body edit that left the call graph's shape intact.
    [changed_procs] must list the edited procedures and every procedure
    whose [GMOD] changed.  Re-derives their gen and demotion sets, reads
    the cap from [gmod], then runs {!solve}'s component solver through
    {!Par.Wavefront.resolve} from their components (components re-solve
    from ∅ — must facts can shrink under an edit): an ancestor
    runs only if a callee component's sets came out changed.  With no
    [changed_procs] it runs no component.  [r] itself is left
    untouched.  Equal, bit for bit, to {!solve} on the edited program,
    and the same with or without [?pool], [rounds] included (span
    ["mustmod.region"]). *)

val mustmod_of : result -> int -> Bitvec.t
(** [MUSTMOD(p)] by pid.  Do not mutate. *)

val intra_of : result -> int -> Bitvec.t
val demoted_of : result -> int -> Bitvec.t

val check_subset : result -> gmod:Bitvec.t array -> bool
(** Does [MUSTMOD(p) ⊆ GMOD(p)] hold for every procedure?  True by
    construction; exported so tests assert the invariant end to end. *)

val pp : Format.formatter -> result -> unit
