(** Chaotic-iteration reference solvers.

    These compute the same least fixpoints as the paper's linear-time
    algorithms by straightforward round-robin iteration of the defining
    equation systems until nothing changes.  They serve two roles:

    - {e test oracles} — their correctness is immediate from the
      equations, so agreement with {!Core.Rmod} / {!Core.Gmod} /
      {!Core.Gmod_nested} on arbitrary programs is the repository's
      central functional invariant;
    - {e baselines} — they realise the classic Kam–Ullman iterative
      approach whose cost the paper's algorithms undercut.  Equation
      (4) is rapid, so the pass counts are small, but every pass costs
      a full sweep of bit-vector operations. *)

val rmod : Callgraph.Binding.t -> imod:Bitvec.t array -> bool array
(** Least solution of equation (6) on β, by iterating over the edges
    until fixpoint.  Indexed by β node. *)

val gmod :
  Ir.Info.t -> Callgraph.Call.t -> imod_plus:Bitvec.t array -> Bitvec.t array
(** Least solution of equation (4) on the call multi-graph. *)

val gmod_passes :
  Ir.Info.t ->
  Callgraph.Call.t ->
  imod_plus:Bitvec.t array ->
  Bitvec.t array * int
