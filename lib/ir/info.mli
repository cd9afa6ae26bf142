(** Precomputed per-program set views.

    The paper's equations are stated over the sets [LOCAL(p)],
    [GLOBAL], and visibility; this module materialises them as bit
    vectors over variable ids, once, so that every solver (new
    algorithm, baselines, test oracle) shares identical inputs. *)

type t

val make : Prog.t -> t

val prog : t -> Prog.t

val with_prog : t -> Prog.t -> t
(** O(1) re-association with a structurally identical program — same
    variable/procedure tables, possibly different statement bodies or
    site table.  The incremental engine uses this to reuse the set
    views across body- and call-shape-preserving edits; passing a
    program whose declarations differ invalidates every set in [t]. *)

val n_vars : t -> int

val local : t -> int -> Bitvec.t
(** [LOCAL(p)]: formals and locals declared by procedure [p].  For the
    main procedure this excludes program-level (global) variables.  Do
    not mutate. *)

val non_local : t -> int -> Bitvec.t
(** Complement of [local] within the variable universe — the set the
    corrected equation (4) intersects with.  Do not mutate. *)

val global : t -> Bitvec.t
(** All program-level variables.  Do not mutate. *)

val visible : t -> int -> Bitvec.t
(** Variables visible inside procedure [p]: globals plus everything
    declared by [p] or a lexical ancestor.  Do not mutate. *)

val var_level : t -> int -> int
(** Declaration nesting level of a variable (0 for globals). *)

val level_at_most : t -> int -> Bitvec.t
(** Variables declared at nesting level [<= l] — the variable universe
    of the level-[l] problem in the multi-level algorithm (§4).  Do not
    mutate. *)

val fresh : t -> Bitvec.t
(** A new empty vector over the variable universe. *)

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
