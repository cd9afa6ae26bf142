(** [IMOD+] — equation (5) of the paper:

    {v IMOD+(p) = IMOD(p) ∪ ⋃_(e=(p,q)) b_e(RMOD(q)) v}

    where [b_e] is restricted to actual-to-formal bindings: for each
    call site in [p] and each by-reference formal of the callee that
    {!Rmod} marks modified, the {e base variable} of the corresponding
    actual is added.  (When the actual is an array element [A[i]], the
    base is the whole array [A] — the §3 bit granularity.)

    The result is then closed under the §3.3 nesting extension
    ({!Ir.Info.fold_up_nesting}), the "corresponding redefinition of
    IMOD+" the paper calls for: effects that a nested procedure's call
    sites inflict on variables non-local to it belong to every
    enclosing procedure as well.  {!compute} is {!augment} followed
    by that fold. *)

val augment :
  Ir.Info.t ->
  rmod:Rmod.result ->
  imod:Bitvec.t array ->
  Bitvec.t array
(** The step before the nesting fold: a fresh copy of [imod] with, for
    every call site, [b_e(RMOD(callee))] added to the caller's entry.
    A dereference actual [*p] contributes every variable it may name
    ({!Ir.Info.lvalue_cells}). *)

val augment_proc :
  Ir.Info.t ->
  rmod:Rmod.result ->
  imod:Bitvec.t array ->
  sites:Ir.Prog.site list ->
  int ->
  Bitvec.t
(** [augment_proc info ~rmod ~imod ~sites pid] is procedure [pid]'s
    entry of {!augment}; [sites] must be exactly the call sites whose
    caller is [pid]. *)

val compute :
  Ir.Info.t ->
  rmod:Rmod.result ->
  imod:Bitvec.t array ->
  Bitvec.t array
(** Per-procedure [IMOD+]; [imod] must be the nesting-extended family
    the [rmod] solve was seeded with.  Runs under an {!Obs.Span} named
    ["imod_plus"].  {!Analyze.solve} keeps the augmented family
    and runs {!augment} and the fold itself, the [USE] side under
    ["iuse_plus"]. *)
