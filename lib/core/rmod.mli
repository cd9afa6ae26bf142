(** The reference-formal-parameter problem, solved on the binding
    multi-graph — Figure 1 of the paper.

    [RMOD(fp_i^p)] is [true] iff the [i]-th (by-reference) formal of
    [p] may be modified by an invocation of [p].  The system solved is
    equation (6):

    {v RMOD(m) = IMOD(m) ∨ ⋁_(m,n)∈Eβ RMOD(n) v}

    whose solution is constant on each strongly-connected component of
    β, so the algorithm is: (1) find the SCCs of β, (2) or together the
    [IMOD] bits within each component, (3) propagate from leaves to
    roots of the condensation, (4) copy each component's answer to its
    members.  Every step is [O(Nβ + Eβ)] single-word boolean
    operations — the "order of magnitude" gain over bit-vector methods
    (§3.2). *)

type state
(** The condensation of β the solve ran on — components, members,
    inter-component successor and predecessor lists — with each
    component's value and each node's seed bit: everything {!resolve}
    needs to push a seed change through without re-walking the graph. *)

type result = {
  binding : Callgraph.Binding.t;
  rmod : bool array;  (** Per β node. *)
  steps : int;
      (** Simple boolean steps executed (node initialisations plus edge
          relaxations, over both the condensation and the copy-back) —
          the quantity the paper's [O(Nβ + Eβ)] bound counts.  Used by
          the empirical-linearity experiment. *)
  state : state;
}

val solve :
  ?label:string -> ?pool:Par.Pool.t -> Callgraph.Binding.t -> imod:Bitvec.t array -> result
(** [imod] is the per-procedure [IMOD] family (nesting extension
    included) from {!Frontend.Local.imod}; only its formal-parameter
    bits are consulted.

    Steps 2 and 4 are chunked over [?pool] and step 3 runs as a
    condensation wavefront (step 1, the SCC pass, stays sequential);
    without a pool the same code runs inline, so results and the
    [steps] total do not depend on the pool.

    Runs under an {!Obs.Span} named [label] (default ["rmod"]; the
    [USE]-side solve passes ["ruse"]) and adds its boolean step count
    to the [rmod.steps] registry counter. *)

val resolve :
  ?label:string ->
  result ->
  imod:Bitvec.t array ->
  changed_procs:int list ->
  result * int list
(** [resolve r ~imod ~changed_procs] updates a solved instance after
    an edit that left the binding multi-graph intact but may have
    changed the [IMOD] bits of the listed procedures.  Re-reads seeds
    only for those procedures' by-reference formals, then runs change
    propagation leaves-to-roots over [r]'s condensation
   : a component is re-evaluated only if its
    own seed flipped or a successor component's value actually changed
    (the condensation-ancestor cone, pruned at unchanged values).
    Returns the new result and the β nodes whose [RMOD] bit changed.
    [r] itself is left untouched.  Equal, bit for bit, to [solve] on
    the new seeds (default span label ["rmod.region"]). *)

val modified : result -> int -> bool
(** [modified r vid]: is this by-reference formal modified?  [false]
    for variables that are not by-reference formals. *)

val to_var_set : result -> Bitvec.t
(** All modified by-reference formals, as a variable-id set. *)

val rmod_of_proc : result -> int -> int list
(** The modified by-reference formals of one procedure, as variable
    ids, ascending — the paper's [RMOD(p)]. *)

val pp : Format.formatter -> result -> unit
