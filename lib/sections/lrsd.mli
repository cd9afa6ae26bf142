(** Local regular-section descriptors — the paper's [lrsd(x)],
    "computable by local examination of a procedure".

    For every procedure, the variables it directly modifies (or uses)
    are summarised as sections instead of bits: an array-element
    assignment [A[i, j] := …] contributes the section [A(i', j')] where
    a subscript survives as a symbolic atom only when it is an affine
    form [v + c] over a variable [v] that the procedure {e never
    modifies} (so the atom is stable across the whole activation —
    flow-insensitivity demands this); any other subscript — a loop
    variable, a locally assigned temporary, a compound expression —
    widens that dimension to [Star].  This is precisely how row and
    column sections arise: in [for j := … do A[i, j] := …], [j] is
    modified by the loop, so the access summarises to the row
    [A(i, star)] (star written out to keep this a legal comment).

    Whole-array effects (passing the array by reference, {!Stmt.Read}
    of an element with unstable subscripts, …) widen to the whole
    array. *)

val atomize : unstable:Bitvec.t -> Ir.Expr.t -> Section.dim
(** [Exact] for constants and affine forms [v], [v + c], [v - c],
    [c + v] over stable [v]; [Star] otherwise. *)

val lrsd_mod : Ir.Prog.t -> unstable:Bitvec.t array -> Secmap.t array
(** Sectioned local modification summary of every procedure (the
    sectioned [IMOD], nesting aside — section analysis is defined on
    flat programs, see {!Analyze_sections}).  [unstable.(p)] is the set
    of variables procedure [p] may modify locally
    ({!Frontend.Local.imod_flat}), which disqualifies subscript
    atoms. *)

val lrsd_use : Ir.Prog.t -> unstable:Bitvec.t array -> Secmap.t array
(** Sectioned local use summary of every procedure. *)

val stmts_mod : Ir.Prog.t -> unstable:Bitvec.t -> Ir.Stmt.t list -> Secmap.t
(** Sectioned local modifications of a statement list under a
    caller-chosen instability set — used for per-iteration loop
    summaries where the loop variable is deliberately treated as
    stable. *)

val stmts_use : Ir.Prog.t -> unstable:Bitvec.t -> Ir.Stmt.t list -> Secmap.t

val use_expr_into :
  unstable:Bitvec.t -> add:(int -> Section.t -> unit) -> Ir.Expr.t -> unit
(** Feed the sectioned uses of one expression (scalar reads as rank-0
    sections, element reads as element sections, subscript reads
    recursively) into [add]. *)

val use_lvalue_indices_into :
  unstable:Bitvec.t -> add:(int -> Section.t -> unit) -> Ir.Expr.lvalue -> unit
(** Sectioned uses of an lvalue's subscripts only. *)
