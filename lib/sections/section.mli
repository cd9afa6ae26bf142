(** The regular-section lattice of §6 (Figure 3), generalised from the
    paper's 2-D example to any rank.

    A section describes the part of an array an effect may touch: each
    dimension is either pinned to a symbolic subscript ([Exact]) or
    unconstrained ([Star]).  Figure 3's lattice for a 2-D array [A] is
    exactly: [A(I, J)] (both exact) above [A(star, J)] and [A(K, star)] above
    [A(star, star)].  [Bottom] is "not accessed at all" and scalars are
    rank-0 sections (accessed / not accessed — the single bit of §3).

    Symbolic subscripts are affine atoms [v + c] over variables that
    the describing procedure does not modify (the front end of the
    analysis, {!Lrsd}, guarantees this), so equal atoms denote equal
    values throughout any single activation and the lattice operations
    are sound.

    [join] is the may-effect union (descends Figure 3: joining two
    different exact rows gives the whole array); the paper writes it as
    the lattice meet.  The third §6 property — around any cycle of the
    binding multi-graph [g_p(x) ⊓ x = x] — holds by construction here
    because MiniProc actual parameters are whole variables or single
    elements, making every binding function either the identity or a
    restriction. *)

type atom =
  | Const of int
  | Affine of {
      var : int;  (** Variable id of a symbolically stable scalar. *)
      offset : int;
    }

type dim =
  | Exact of atom
  | Star

type t =
  | Bottom  (** No access. *)
  | Section of dim array  (** One entry per dimension; [[||]] for scalars. *)

val bottom : t

val whole : rank:int -> t
(** All-[Star]: the entire array (or the scalar, at rank 0). *)

val element : atom list -> t
(** Single element pinned in every dimension. *)

val equal : t -> t -> bool

val join : t -> t -> t
(** May-union: [Bottom] is the identity; sections of equal rank combine
    dimension-wise ([Exact a ⊔ Exact a = Exact a], anything else
    [Star]).  Raises [Invalid_argument] on rank mismatch. *)

val leq : t -> t -> bool
(** [leq a b] iff [a]'s accesses are contained in [b]'s:
    [join a b = b]. *)

val rank : t -> int option
(** [None] for [Bottom]. *)

val intersects : t -> t -> bool
(** May the two sections overlap?  Used for dependence testing: two
    sections are surely disjoint only when some dimension pins both to
    {e provably different} subscripts (distinct constants, or the same
    variable with different offsets). *)

val height : rank:int -> int
(** Length of the longest strictly increasing chain from [Bottom] to
    [whole] — [rank + 2]; the §6 complexity discussion notes the
    running time does {e not} depend on it. *)

val count_joins : int -> unit
(** Add to the ["sections.joins"] counter: the joins a solver performed
    — §6's cost unit.  Solvers call it once per solve. *)

val pp : ?var_name:(int -> string) -> Format.formatter -> t -> unit
(** Prints like the paper: [A(I, *, 3)] style (without the array
    name). *)
