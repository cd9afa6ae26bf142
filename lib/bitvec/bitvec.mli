(** Hybrid sparse/dense bit vectors.

    The paper measures its algorithms in "bit-vector steps": one step is
    a whole-vector operation (union, copy, comparison) over vectors
    whose length grows with the program (the number of formal
    parameters, or of global variables).  This module is that substrate:
    fixed-length mutable bitsets with the destructive operations the
    solvers need ([union_into] returning a change flag drives every
    fixpoint loop) and global operation counters used by the
    empirical-linearity experiment (L1 in DESIGN.md).

    {b Representation.}  Behind the abstract [t], a vector is either
    {i small} — a sorted array of set-bit indices — or {i dense} — the
    classic word array, annotated with the exact number of occupied
    words (its "top").  Vectors start small and promote to dense when
    their cardinality exceeds {!small_threshold}; shrinking operations
    ([clear], intersections that leave few survivors) demote back.  All
    transitions are deterministic functions of the per-vector operation
    sequence, which is what keeps parallel schedules (lib/par) and
    sequential runs op-count-identical.

    {b Cost accounting.}  Every whole-vector operation bumps
    [bitvec.vector_ops] by one and [bitvec.word_ops] by the number of
    machine words of live data it actually touched: live cardinalities
    for small operands, occupied-prefix lengths for dense ones (never
    less than 1 per operation).  Operations on small operands
    additionally bump [bitvec.small_ops] by one.  Point operations
    ([get]/[set]/[unset]) and representation bookkeeping (allocation
    zero-fill, top rescans) are not counted.  Under
    [set_hybrid false] the accounting reverts to the legacy dense
    contract: every operation charges the full word count of the
    universe.

    {b Enumeration.}  Reading a set out — {!iter}, {!iter_uncounted},
    {!fold}, {!exists}, {!choose}, {!to_list}, and the demotion that
    collects a shrunk dense intersection into the small form — costs
    O(occupied words + members) in time, whatever bit of its word a
    member sits at.  One kernel serves all of them: it isolates a
    word's lowest set bit [low] and takes its index as
    [popcount_word (low - 1)], so every member costs the same constant
    number of word operations.  The counted ones charge the live size
    once per call; the per-member work is not counted. *)

type t
(** A fixed-length mutable bit vector.  Indices range over
    [0 .. length v - 1]. *)

val create : int -> t
(** [create n] is a vector of [n] bits, all zero.  [n >= 0]. *)

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
(** [get v i] is bit [i].  Raises [Invalid_argument] if out of range. *)

val set : t -> int -> unit
(** [set v i] sets bit [i] to one. *)

val unset : t -> int -> unit
(** [unset v i] sets bit [i] to zero. *)

val clear : t -> unit
(** Zero every bit. *)

val copy : t -> t
(** Fresh vector with the same contents. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src].  Lengths must agree.
    Charged by [src]'s live size alone, whatever [dst] held before. *)

val union_into : src:t -> dst:t -> bool
(** [union_into ~src ~dst] sets [dst := dst ∪ src]; returns [true] iff
    [dst] changed.  Lengths must agree. *)

val inter_into : src:t -> dst:t -> bool
(** [dst := dst ∩ src]; returns [true] iff [dst] changed. *)

val diff_into : src:t -> dst:t -> bool
(** [dst := dst ∖ src]; returns [true] iff [dst] changed. *)

val union : t -> t -> t
(** Functional union; operands must have equal length. *)

val inter : t -> t -> t
(** Functional intersection. *)

val diff : t -> t -> t
(** Functional difference. *)

val equal : t -> t -> bool
(** Bitwise equality.  Lengths must agree. *)

val subset : t -> t -> bool
(** [subset a b] is [true] iff every bit of [a] is set in [b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] is [true] iff [a ∩ b] is empty. *)

val is_empty : t -> bool
(** [true] iff no bit is set. *)

val cardinal : t -> int
(** Number of set bits. *)

val popcount_word : int -> int
(** Population count of a raw machine word — the branch-free SWAR
    kernel under {!cardinal} and under every enumeration's bit index.
    Exposed so tests can pin it against a reference implementation;
    counts nothing. *)

val search : int array -> int -> int -> int
(** [search a n x] binary-searches the ascending prefix [a.(0 .. n - 1)]:
    the index of [x] if present (its first occurrence), else
    [-(i + 1)] for the insertion point [i].  Monomorphic and
    allocation-free; the small form's point operations use it. *)

val iter : (int -> unit) -> t -> unit
(** [iter f v] applies [f] to the index of every set bit, ascending. *)

val iter_uncounted : (int -> unit) -> t -> unit
(** {!iter} without the charge: like {!get}, it counts nothing.  For
    post-passes, such as the provenance forests, that must leave the
    op-count metrics exactly as the solvers left them. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f v init] folds over set-bit indices, ascending. *)

val exists : (int -> bool) -> t -> bool
(** [exists p v] is [true] iff some set bit's index satisfies [p]. *)

val to_list : t -> int list
(** Indices of set bits, ascending. *)

val of_list : int -> int list -> t
(** [of_list n is] is a vector of length [n] with exactly the bits in
    [is] set.  Raises [Invalid_argument] on out-of-range indices. *)

val choose : t -> int option
(** Index of the lowest set bit, if any. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{i1, i2, ...}]. *)

(** {1 Representation control and probes} *)

val set_hybrid : bool -> unit
(** [set_hybrid false] switches the module to the legacy dense-only
    behaviour: new vectors are created dense, promotion/demotion is
    disabled, and every whole-vector operation charges the full word
    count of the universe — the reference model the hybrid
    representation is tested against.  [set_hybrid true] (the default)
    restores hybrid mode.  The switch is global; flip it only between
    complete analysis runs (vectors created under one mode remain valid
    under the other, but their op costs follow the mode current at
    operation time). *)

val hybrid_enabled : unit -> bool
(** Current mode (see {!set_hybrid}). *)

val small_threshold : int -> int
(** [small_threshold n] is the promotion boundary for vectors of
    length [n]: a small vector whose cardinality would exceed this
    promotes to dense.  It is [max 16 (words n)], so the small form is
    never asymptotically worse than the dense one.  Demotion (from a
    shrinking dense intersection) triggers at half this value.
    Exposed so tests can exercise the boundaries exactly. *)

val live_estimate : t -> int
(** Uncounted O(1) upper bound on the cardinality: the exact
    cardinality of a small vector, occupied-words × word-size for a
    dense one.  The parallel scheduler uses this as its batch-cost
    probe (see lib/par/wavefront.ml). *)

val repr_kind : t -> [ `Small | `Dense ]
(** Current physical representation; uncounted.  For tests and
    observability only — the choice is a deterministic function of the
    vector's operation history. *)

(** {1 Operation counters}

    Every whole-vector operation above bumps the registry counters
    [bitvec.vector_ops] (by one) and [bitvec.word_ops] (by the number
    of machine words of live data touched) — the bit-vector-step
    counts the paper's complexity claims are stated in.  Small-path
    operations additionally bump [bitvec.small_ops].  Measure an
    interval with {!Obs.Metric.snapshot} and
    {!Obs.Metric.value_since}, or read the counts off an {!Obs.Span}.
    The counters are per-domain sharded (see {!Obs.Metric}): values
    are exact when the reader is quiescent with respect to worker
    domains, e.g. after a [Par.Pool.run] batch join. *)
