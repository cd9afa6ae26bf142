(** The sectioned reference-formal problem — §6's data-flow framework

    {v rsd(fp1) = lrsd(fp1) ⊔ ⨆_(fp1,fp2)∈Eβ g_e(rsd(fp2)) v}

    over the binding multi-graph, with the binding functions of
    {!Bindfn}.  Because every [g_e] either is the identity or restricts
    (MiniProc actuals are whole variables or single elements), the
    §6 cycle condition holds and the framework is rapid; we solve it
    with a worklist iteration whose total join count is bounded by
    [height · Eβ] with [height = max rank + 2] — and, per §6's
    observation, the measured iteration count does not grow with the
    lattice height (the cycle condition collapses cyclic propagation).

    [rsd] values are expressed in each formal's own procedure's frame.
    The bit-level {!Core.Rmod} answer is recovered exactly by
    flattening ([Section.t ≠ Bottom]) — a test-suite invariant. *)

type result = {
  binding : Callgraph.Binding.t;
  rsd : Section.t array;  (** Per β node, the formal's modified section. *)
}

val solve :
  Ir.Info.t ->
  Callgraph.Binding.t ->
  unstable:Bitvec.t array ->
  lrsd:Secmap.t array ->
  result
(** Seeds each formal with its owner's entry of [lrsd]
    ({!Lrsd.lrsd_mod} for the [MOD] side, {!Lrsd.lrsd_use} for [USE]).
    [unstable] is the per-procedure set [lrsd] was computed under; the
    binding functions read the caller's entry.  Its joins, the §6 cost
    unit, go to {!Section.count_joins}. *)

val section_of : result -> int -> Section.t
(** By variable id; [Bottom] for non-β variables. *)
