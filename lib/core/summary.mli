(** §5 — from [GMOD] to per-call-site [DMOD] and [MOD] (and the
    symmetric [USE] chain).

    Equation (2):
    {v DMOD(s) = LMOD(s) ∪ ⋃_(e=(p,q)∈s) b_e(GMOD(q)) v}

    For a call site [e = (p, q)], the projection [b_e(GMOD(q))] is

    - the variables of [GMOD(q)] that are not local to [q] (they
      survive [q]'s return unchanged in identity), plus
    - for every by-reference formal of [q] in [GMOD(q)], the base
      variable of the corresponding actual.

    [MOD(s)] then extends [DMOD(s)] by one step of alias pairs:
    [∀x ∈ DMOD(s), <x,y> ∈ ALIAS(p) ⇒ y ∈ MOD(s)].

    The first part depends on the callee alone (eq. 8, Theorem 1), so
    {!make} computes it once per procedure — [GMOD(q) ∖ LOCAL(q)], and
    the same for [GUSE] — and every site that calls [q] shares it.  A
    site's projection is a copy of that vector plus its formal-to-actual
    bits; the alias step is {!Alias.close}, which costs the partner rows
    the set hits plus its output. *)

type t

val make :
  ?prev:t * int list * int list ->
  Ir.Info.t ->
  gmod:Bitvec.t array ->
  guse:Bitvec.t array ->
  alias:Alias.t ->
  t
(** Computes the shared callee vectors: one copy and one intersection
    per procedure and side.

    A dereference actual [*...*p] at a by-reference position projects
    a modified formal onto the variables the dereference may name
    ({!Ir.Info.lvalue_cells}), not onto [p].

    [~prev:(old, mod_moved, use_moved)] reuses [old]'s shared vectors
    for every procedure whose [GMOD] (resp. [GUSE]) is not in
    [mod_moved] (resp. [use_moved]), so an edit pays only for the
    vectors that moved.  [LOCAL] must be unchanged since [old] (no
    procedure or variable added or removed). *)

val projection : t -> mode:[ `Mod | `Use ] -> int -> Bitvec.t
(** [b_e(GMOD(q))] (resp. [GUSE]) for call site [e] — the
    interprocedural part of the site's effect, before local effects and
    aliases.  Fresh vector: a copy of the callee's shared vector with
    the site's formal-to-actual bits set. *)

val dmod_site : t -> int -> Bitvec.t
(** [DMOD] of the call statement at a site: since a call statement has
    no local modifications, this is exactly the projection. *)

val duse_site : t -> int -> Bitvec.t
(** [DUSE] of the call statement at a site: the projection plus the
    argument-evaluation uses ([LUSE] of the call statement). *)

val mod_site : t -> int -> Bitvec.t
(** [MOD(s)]: [DMOD(s)] extended with aliases of the surrounding
    procedure. *)

val use_site : t -> int -> Bitvec.t
(** [USE(s)]: [DUSE(s)] extended with aliases. *)

val dmod_stmt : t -> proc:int -> Ir.Stmt.t -> Bitvec.t
(** Equation (2) for an arbitrary statement: its [LMOD] plus the
    projections of every call site it contains (recursively). *)

val duse_stmt : t -> proc:int -> Ir.Stmt.t -> Bitvec.t

val mod_stmt : t -> proc:int -> Ir.Stmt.t -> Bitvec.t
val use_stmt : t -> proc:int -> Ir.Stmt.t -> Bitvec.t
