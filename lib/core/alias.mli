(** Flow-insensitive reference-parameter alias analysis.

    §5 of the paper assumes "simple sets of alias pairs are available
    for each procedure"; this module computes them in the standard
    Banning/Cooper style, so the [MOD]/[USE] step runs on real input.

    A pair [<x, y> ∈ ALIAS(p)] means [x] and [y] may name the same
    location on some entry to [p].  Pairs are introduced by
    by-reference parameter passing at each call site [s : r → q]:

    - the same base variable passed at two by-reference positions
      [i ≠ j] introduces [<f_i, f_j>] in the callee;
    - a base variable [b] that is itself visible inside the callee
      (a global, or a local of a lexical ancestor of the callee) passed
      at position [i] introduces [<f_i, b>];
    - an existing pair [<x, y> ∈ ALIAS(r)] propagates: both passed →
      [<f_i, f_j>]; [x] passed and [y] visible in the callee →
      [<f_i, y>].

    Pairs are inherited down the nesting tree: anything that may hold
    on entry to [p] also holds inside procedures declared in [p], which
    execute within [p]'s activation.

    The pairs are closed by a semi-naive sweep: rounds over the call
    sites in id order, then inheritance, until a round derives nothing.
    Each procedure logs every pair that enters [ALIAS(p)] or turns
    pointer-tainted there; each site reads only the part of its
    caller's log it has not seen (each nested procedure likewise its
    parent's), sorted into pair order.  A site's by-reference bindings
    are built once, the plain ones sorted by base and the dereference
    sets (see {!compute}) probed by membership, so a caller pair
    touches only the bindings on its two members, and the introduction
    rules run on the site's first visit only.  Each pair therefore
    crosses each site at most twice (added, then tainted), and the
    [alias.pair_visits] counter records the crossings.  Pairs are first
    added in the same order as a full sweep of every pair each round
    adds them, so the recorded provenance is that sweep's.

    Two distinct array elements of the same array are (conservatively)
    treated like the whole arrays, consistent with the §3 bit
    granularity.

    {b Storage.}  While the closure runs, every procedure's pairs and
    their taint live in one open-addressing table of integer keys
    ([pid], [x], [y] encoded), and each caller's log slice is sorted
    once per distinct [(from, upto)], not once per reading site: a
    caller's sites are consecutive in id order, so within a round they
    mostly read the same slice.  The [alias.slice_reads] and
    [alias.slice_sorts] counters record the non-empty slices read and
    the ones sorted.  At
    the end, [compute] freezes each procedure's [ALIAS(p)] into a
    sorted pair array with a taint byte per pair, and symmetric partner
    rows: every variable with a partner, and its partners ascending.
    {!pairs} and {!total_pairs} cost their output; {!may_alias} and
    {!pointer_tainted} a binary search over [ALIAS(p)]; {!aliases_of}
    one row lookup plus its output; {!close} a copy of its set plus the
    rows the set hits (found by walking whichever is shorter, the set
    or the row index) plus its output — never all of [ALIAS(p)]. *)

type t

val norm : int -> int -> int * int
(** Order a pair as [(min, max)] — the key form of {!pairs} and of
    {!Provenance.alias_table}. *)

val compute :
  ?provenance:Provenance.alias_table ->
  Ir.Info.t ->
  t
(** With [~provenance], the fixpoint records the §5 rule that first
    introduced each pair into the given table, which must start empty
    (see {!Provenance});
    the computed pairs — and the counted bit-vector operations — are
    identical either way.

    A dereference actual [*...*p] binds the interned set of variables
    the dereference may name ({!Ir.Info.deref_set}) as one binding,
    and the §5 introduction and propagation rules fire as if every
    cell of the set were passed; such pairs carry the
    {!Provenance.Apointsto} reason.  Its pairs with the visible cells
    of the set are walked once per [(callee, formal, set id)] for the
    whole analysis (at a later site they would all be no-ops, being
    tainted already), two positions share a cell by membership or by a
    sorted intersection of two sets, and a caller pair on [x] crosses
    the plain bindings on [x] and the sets holding [x].  Introduction
    therefore reads O(sites × by-reference actuals + Σ distinct
    (callee, formal, id) |cells| + Σ over two dereference actuals of
    one site their |cells|) projection cells, counted by
    [alias.binding_cells].
    Two dereference actuals at one site whose heap targets
    ({!Ir.Info.deref_heap}) meet seed their formal pair before the
    fixpoint, since no shared variable target shows that overlap. *)

val pairs : t -> int -> (int * int) list
(** [ALIAS(p)] as normalised [(min vid, max vid)] pairs, sorted. *)

val iter_pairs : t -> int -> (int -> int -> bool -> unit) -> unit
(** [iter_pairs t p f] calls [f x y tainted] on every pair of
    [ALIAS(p)], in {!pairs} order, with [tainted] the pair's
    {!pointer_tainted} answer.  Reads the frozen rows in place: no
    list is built and no pair is searched for. *)

val pointer_tainted : t -> proc:int -> int * int -> bool
(** Did some derivation of the pair pass through pointer resolution —
    a dereference binding expanded by the points-to projection, or a
    heap-overlap seed — transitively through §5 propagation and
    nesting inheritance?  Pairs that owe their
    existence purely to by-reference parameter binding answer [false].
    The must-modify analysis keys its demotion strength on this: a
    binding-only pair re-resolves exactly at every call site, a
    pointer-tainted one does not (see {!Mustmod}). *)

val aliases_of : t -> proc:int -> var:int -> int list
(** Variables possibly aliased to one variable on entry to [proc],
    ascending: the variable's partner row. *)

val may_alias : t -> proc:int -> int -> int -> bool
(** [<x, y> ∈ ALIAS(p)]; irreflexive. *)

val close : t -> proc:int -> Bitvec.t -> Bitvec.t
(** One-step alias extension of a variable set within a procedure —
    the §5 [MOD(s)] rule: every alias of a member is added (fresh
    vector).  The union of the set with the partner rows of its
    members; one counted copy, plus one counted walk of the set when
    the set is shorter than the row index. *)

val total_pairs : t -> int
(** Σ_p |ALIAS(p)| — the size term the paper's §5 cost analysis is
    linear in. *)

val pp : Ir.Prog.t -> Format.formatter -> t -> unit
