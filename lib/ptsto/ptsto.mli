(** Flow-insensitive points-to analysis over MiniProc pointers.

    The paper's framework (the call multigraph, β, [RMOD], [GMOD], the
    §5 alias pairs) is oblivious to {e how} a name comes to denote a
    storage cell; it only needs, for every dereference [*...*p], the
    set of variables that dereference may name.  This module computes
    that projection once, up front, so every downstream pass — local
    analysis, β construction, the §5 machinery — stays exactly the
    paper's linear-time algorithm with a slightly fatter input.

    {2 Abstract locations}

    One location per scalar variable, plus one {e heap summary}
    location per syntactic [new] site (numbered in program order).
    Arrays hold integers only, and MiniProc has no pointer-to-array or
    array-of-pointer types, so array cells never enter the pointer
    world.

    {2 The two tiers}

    - {e Steensgaard}: unification-based.  Every assignment [p := q]
      merges the targets of [p] and [q] into one equivalence class
      (almost-linear time, one pass over the program).
    - {e Andersen}: inclusion-based.  [p := q] only constrains
      [pts(p) ⊇ pts(q)]; solved to a least fixpoint by a worklist over
      copy edges and load/store constraints (cubic worst case, far more
      precise).

    Every Andersen points-to set is contained in the corresponding
    Steensgaard set — the generated-program test suite checks the
    induced alias pairs obey that inclusion program by program.

    {2 Storage closure}

    By-reference parameter passing makes two {e names} denote one cell:
    after [call q(x)] binding by-ref formal [f], [f] and [x] are the
    same storage.  Dereference targets must be closed under that
    relation — if [p] may point to [x] then [*p] may name [f] inside
    [q].  The closure tracks, per variable, the set of cells its
    storage {e may actually be} (itself, plus every binding source,
    transitively); a dereference then names every variable whose
    possible storage meets the raw cells'.  This is deliberately {e
    not} an equivalence relation: one formal bound to [x] at one site
    and [y] at another must not fuse [x] with [y], or Andersen's
    precision on exactly the programs that separate the tiers would be
    thrown away.  Both tiers share the construction, so the soundness
    oracle (the interpreter's observed dereference owners) can compare
    against either directly.

    The possible storage of [v] is what [v] reaches in the bound-to
    graph ([v -> s] for each binding source [s]), so the closure is
    one pass over its condensation in Tarjan's component order, as
    Figure 1 closes β.  A reverse index (cell to the variables whose
    storage may hold it) then gives every projection without a scan
    over all variables. *)

type tier = Steensgaard | Andersen

val tier_name : tier -> string
(** ["steensgaard"] / ["andersen"] — the [--ptsto] spelling. *)

val tier_of_string : string -> tier option

val has_pointers : Ir.Prog.t -> bool
(** Does any variable have a pointer type?  Dereferences, [&], [new]
    and pointer assignments all require pointer-typed variables, so
    [false] means the program is pointer-free and the analysis is the
    identity (callers skip it entirely: pointer-free runs stay
    bit-identical to a build without this module). *)

type t

val analyze : ?tier:tier -> Ir.Prog.t -> t
(** Solve the chosen tier (default [Steensgaard]), close the storage
    sets, and project every pointer variable at every depth its type
    allows, so the queries below are lookups.  Linear-ish in program
    size for Steensgaard; worklist fixpoint for Andersen. *)

val tier : t -> tier
val prog : t -> Ir.Prog.t

val n_heap : t -> int
(** Number of [new] sites (heap summary locations). *)

val heap_name : t -> int -> string
(** Display name of heap location [k]: ["new#k@proc"]. *)

val deref_targets : t -> int -> int -> int list
(** [deref_targets t p d]: every variable the [d]-fold dereference
    [*...*p] may name, closed under name equivalence, sorted ascending.
    Empty when [p] is not a pointer, when [d] is outside [1 ..] [p]'s
    pointer depth, or when the chain cannot reach variable storage.
    This is the projection {!Frontend.Local},
    {!Callgraph.Binding} and the §5 seeding consume, through
    {!pointers} and {!Ir.Info}. *)

val deref_heap : t -> int -> int -> int list
(** Heap locations (by [new]-site id) the [d]-fold dereference may
    name, sorted ascending. *)

val deref_set : t -> int -> int -> Ir.Info.cells
(** {!deref_targets} as an interned set: every distinct answer of this
    solution is built once, with a dense id in the order [analyze]
    first meets it (id 0 is the empty set) and one shared ascending
    array.  Two dereferences have the same id iff they may name the
    same variables; their heap parts may differ.  A lookup. *)

val pointers : t -> Ir.Info.pointers
(** {!deref_targets}, {!deref_heap} and {!deref_set} as the
    projection {!Ir.Info.make} takes: the one place the solution
    enters the interprocedural phases. *)

val same_projection : t -> t -> bool
(** Do two solutions, over programs with the same variable table,
    answer every {!deref_targets} and {!deref_heap} query alike?  The
    incremental engine keeps its cached phases across an edit only
    when they do. *)

val points_to : t -> int -> [ `Var of int | `Heap of int ] list
(** Depth-1 cells of pointer variable [p] (its points-to set proper),
    variables first, each group sorted. *)

val size : t -> int
(** [Σ_p |points_to p|] over pointer variables — the standard precision
    metric (smaller is tighter; Andersen ≤ Steensgaard). *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing: one [p -> {x, y, new#0@q}] line per
    pointer variable with a non-empty set. *)
