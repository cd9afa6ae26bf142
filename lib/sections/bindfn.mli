(** The per-edge binding functions [g_e] of §6.

    An edge of the binding multi-graph carries the call site and
    argument position it arose from; [g_e] maps a regular section
    describing an effect on the {e callee's formal} (expressed in the
    callee's terms) to a section describing the induced effect on the
    {e actual} (expressed in the caller's terms).  Two shapes occur in
    MiniProc:

    - {e whole-variable binding} [call q(A)]: ranks agree and [g_e]
      substitutes the callee's symbolic atoms into the caller's frame —
      a by-value formal atom becomes the actual expression's atom when
      that is affine and stable in the caller, a globally-immutable
      global survives unchanged, anything else widens to [Star];
    - {e element binding} [call q(A[i, j])]: the callee's formal is a
      scalar; its rank-0 section maps to the single-element section
      [A(i', j')] atomised against the caller's stable variables — a
      {e restriction}, which is why the §6 cycle condition
      [g_p(x) ⊓ x = x] holds.

    Both are monotone and reduce access ([g_e x ⊑] the whole actual
    restricted appropriately), as §6 requires. *)

val project :
  Ir.Info.t ->
  site:Ir.Prog.site ->
  arg_pos:int ->
  caller_unstable:Bitvec.t ->
  callee_section:Section.t ->
  int * Section.t
(** [(base variable of the actual, induced section on it)].  The
    argument at [arg_pos] must be by-reference.  [caller_unstable] is
    the set of variables the caller may modify — its flat [IMOD], or
    that set without the loop variable for a per-iteration loop
    summary. *)

val subst_section :
  Ir.Info.t -> site:Ir.Prog.site -> caller_unstable:Bitvec.t -> Section.t -> Section.t
(** Substitute a callee-frame section into the caller's frame at one
    call site: callee formals translate through the actuals, stable
    globals survive, everything else widens to [Star]. *)

val retarget_global : immutable:Bitvec.t -> Section.t -> Section.t
(** Widen a section so it is meaningful in {e any} procedure: keeps
    constant atoms and atoms over the globals in [immutable] — those no
    procedure modifies, the [immutable] field of {!Analyze_sections.t},
    derived once per program — and widens the rest to [Star].  Used
    when sections of global arrays flow through the call graph, where
    no single binding applies.  Returns the section itself when nothing
    widens. *)
