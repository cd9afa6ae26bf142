(** Precomputed per-program set views.

    The paper's equations are stated over the sets [LOCAL(p)],
    [GLOBAL], and visibility; this module materialises them as bit
    vectors over variable ids, once, so that every solver (new
    algorithm, baselines, test oracle) shares identical inputs. *)

type t

type cells = { id : int; vars : int array }
(** One interned answer of the projection: the variables a dereference
    may name, ascending in [vars], and a dense [id].  Under one
    projection, two dereferences get the same [id] iff they may name
    the same variables, and then the same [vars] array, which must not
    be mutated.  Id 0 is the empty set. *)

val no_cells : cells
(** The empty set, id 0. *)

type pointers = {
  deref : int -> int -> int list;
      (** [deref p d]: every variable the [d]-fold dereference
          [*...*p] may name. *)
  deref_heap : int -> int -> int list;
      (** [deref_heap p d]: the heap summary locations ([new] sites)
          that dereference may name. *)
  deref_set : int -> int -> cells;
      (** [deref_set p d]: the variables of [deref p d] as their
          interned {!cells}. *)
}
(** The points-to projection, the one fact about pointers the
    interprocedural phases read.  [Core.Analyze.run] builds it from
    the points-to solution ([Ptsto.pointers]); every phase that
    expands a dereference reads it back through {!deref},
    {!deref_heap}, {!deref_set} or {!lvalue_cells}. *)

val make : ?pointers:pointers -> Prog.t -> t
(** Without [~pointers] every dereference names nothing — exact on
    pointer-free programs, where no dereference exists. *)

val prog : t -> Prog.t

val with_prog : ?pointers:pointers -> t -> Prog.t -> t option
(** Re-association with a program of the same declarations — same
    variable/procedure tables, possibly different statement bodies or
    site table — and the projection [pointers] (default: the empty
    one), which must answer every query as [t]'s did.  The incremental
    engine uses this to reuse the set views across body and call-shape
    edits; passing a program whose declarations differ invalidates
    every set in [t].  [None] when [prog]'s [&x] operands name another
    set of variables: [LOCAL] and the levels move, and only {!make} is
    right.  Costs a scan of the variable table, and on a program with
    pointer variables one of its statements. *)

val without_pointers : t -> t
(** O(1): the same sets with the empty projection, for an analysis
    that does not model pointers (the §6 sections). *)

val n_vars : t -> int

val local : t -> int -> Bitvec.t
(** [LOCAL(p)]: formals and locals declared by procedure [p], less
    those whose address some [&x] in the program takes (by-reference
    formals excepted, their address is the actual's).  A pointer can
    name such a variable from a callee or from another activation of
    [p], so it is not local to [p]'s activation: it has level 0 and
    equation 4 carries it across calls as it does a global.  For the
    main procedure this excludes program-level (global) variables.  Do
    not mutate. *)

val non_local : t -> int -> Bitvec.t
(** Complement of [local] within the variable universe — the set the
    corrected equation (4) intersects with.  Do not mutate. *)

val global : t -> Bitvec.t
(** All program-level variables.  Do not mutate. *)

val visible : t -> int -> Bitvec.t
(** Variables visible inside procedure [p]: globals plus everything
    declared by [p] or a lexical ancestor, address-taken or not.  Do
    not mutate. *)

val var_level : t -> int -> int
(** Declaration nesting level of a variable (0 for globals and for the
    address-taken variables {!local} leaves out). *)

val level_at_most : t -> int -> Bitvec.t
(** Variables declared at nesting level [<= l] — the variable universe
    of the level-[l] problem in the multi-level algorithm (§4).  Do not
    mutate. *)

val fresh : t -> Bitvec.t
(** A new empty vector over the variable universe. *)

val deref : t -> int -> int -> int list
(** The [deref] field of the projection [t] was made with. *)

val deref_heap : t -> int -> int -> int list

val deref_set : t -> int -> int -> cells
(** The [deref_set] field: the variables of {!deref} as one interned
    set, so a caller that binds a dereference as a whole can recognise
    a set it has seen by its [id] instead of walking it.  A lookup; no
    list is built.  The §5 alias closure reads dereference actuals
    through it. *)

val lvalue_cells : t -> Expr.lvalue -> int list
(** The variables an lvalue may name, written to or bound to a
    by-reference formal: the base of a variable or element, the
    {!deref} targets of [*...*p].  Every phase that asks which cells
    an assignment or a by-reference actual touches calls this. *)

val fold_up_nesting :
  ?prev:Bitvec.t array * int list -> t -> Bitvec.t array -> Bitvec.t array * int list
(** [fold_up_nesting info sets] applies the §3.3 nesting extension to a
    per-procedure family of variable sets: bottom-up over the nesting
    tree, [result(p) = sets(p) ∪ ⋃_{q ∈ Nest(p)} (result(q) ∖
    LOCAL(q))].  Fresh vectors; the input is not mutated.  Both [IMOD]
    and [IMOD+] (and their [USE] analogues) are closed with this.

    With [~prev:(folded, seeds)], where [folded] is the fold of a
    previous family that differed from [sets] at most at [seeds], only
    the seeds and their lexical ancestors are refolded (an ancestor
    only when a child moved) and every other vector is shared with
    [folded]; [folded] itself comes back when nothing moved.  The
    second component lists the procedures whose folded vector changed
    (one [Bitvec.equal] each against [folded]); without [prev] nothing
    is compared and it lists every procedure. *)
