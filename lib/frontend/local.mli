(** Local (intraprocedural) effect analysis — the inputs the paper
    assumes are available.

    [LMOD(s)] / [LUSE(s)] are the variables a single statement may
    modify / use, {e exclusive of any procedure calls in it}: a call
    statement's [LMOD] is empty, and its [LUSE] contains only the
    variables read to evaluate its arguments (value-argument
    expressions and the subscripts of reference actuals — evaluated at
    the call, in the caller).

    Modifying an array element counts as modifying the whole array at
    this granularity; §6's regular sections refine that separately.

    Pointer dereferences are expanded through the points-to projection
    the {!Ir.Info.t} was made with ({!Ir.Info.deref}): a write through
    [*...*p] modifies every variable the dereference may name.  Made
    without one, a dereference names nothing — exact on pointer-free
    programs, where no dereference exists.  [&x] reads nothing, but it
    lets [x] escape its activation: {!Ir.Info.local} leaves such a
    variable out of its owner's [LOCAL], so the nesting fold below and
    every phase after it carry its writes across calls.

    [IMOD(p) = ⋃_{s∈p} LMOD(s)], extended for nested procedure
    declarations per §3.3:
    [IMOD(p) ⊇ IMOD(q) ∖ LOCAL(q)] for each [q ∈ Nest(p)]
    (the paper's overbar on LOCAL restored — see DESIGN.md), computed
    bottom-up over the nesting tree.  [IUSE] is the symmetric
    computation from [LUSE]. *)

val expr_reads : Ir.Info.t -> Ir.Expr.t -> int list
(** Variables whose value evaluating this expression reads, ascending.
    [&x] reads nothing; [*p] reads [p] and its {!Ir.Info.deref}
    targets. *)

val lvalue_addr_reads : Ir.Info.t -> Ir.Expr.lvalue -> int list
(** Variables read to compute the lvalue's address: subscripts of an
    element, the pointer and intermediate cells of a dereference.  The
    variables the lvalue itself may name are {!Ir.Info.lvalue_cells}. *)

val lmod_stmt : Ir.Info.t -> Ir.Stmt.t -> int list
(** Variables directly modified by this one statement (not its
    sub-statements), ascending. *)

val luse_stmt : Ir.Info.t -> Ir.Stmt.t -> int list
(** Variables directly used by this one statement (not its
    sub-statements), ascending. *)

val flat_of_proc :
  Ir.Info.t -> (Ir.Info.t -> Ir.Stmt.t -> int list) -> int -> Bitvec.t
(** [flat_of_proc info per_stmt pid] is [⋃ per_stmt(s)] over the
    statements of procedure [pid], without the nesting extension: its
    entry of {!imod_flat} (with {!lmod_stmt}) or {!iuse_flat} (with
    {!luse_stmt}).  A fresh vector. *)

val imod_flat :
  ?pool:Par.Pool.t -> Ir.Info.t -> Bitvec.t array
(** Per-procedure [⋃ LMOD(s)] without the nesting extension.
    Procedures are scanned in chunks over [?pool] (the per-procedure
    sets are independent); identical results with or without it and —
    these passes perform no whole-vector operations — identical counter
    state. *)

val iuse_flat :
  ?pool:Par.Pool.t -> Ir.Info.t -> Bitvec.t array

val imod :
  ?pool:Par.Pool.t -> Ir.Info.t -> Bitvec.t array
(** Per-procedure [IMOD] with the §3.3 nesting extension (the nesting
    fold itself is sequential). *)

val iuse :
  ?pool:Par.Pool.t -> Ir.Info.t -> Bitvec.t array
(** Per-procedure [IUSE] with the §3.3 nesting extension. *)
