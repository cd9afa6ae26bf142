(** Vectors of lattice elements — §6's replacement for bit vectors.

    A [Secmap.t] assigns every variable of the program a
    {!Section.t}: [Bottom] for untouched variables, a rank-0 section
    for touched scalars, a proper section for arrays.  It plays the
    role the bit vector played in §3/§4, with bitwise or generalised to
    pointwise {!Section.join}.

    Only non-[Bottom] entries are stored, so a map costs O(touched),
    not O(variables of the program), in heap and per traversal. *)

type t

val create : Ir.Prog.t -> t
(** Everything [Bottom]. *)

val copy : t -> t
(** O(1): the entries are persistent, so the copy shares them. *)

val get : t -> int -> Section.t

val add : t -> int -> Section.t -> bool
(** Join a section into one slot; [true] iff the slot changed. *)

val join_into : src:t -> dst:t -> bool
(** Pointwise join; [true] iff [dst] changed. *)

val equal : t -> t -> bool

val to_bits : t -> Bitvec.t
(** Flatten: variable set whose section is not [Bottom] — the §3 view
    of a §6 answer, used by the soundness comparison tests. *)

val touched : t -> (int * Section.t) list
(** Non-[Bottom] entries, in ascending variable id. *)

val iter : (int -> Section.t -> unit) -> t -> unit
(** {!touched} without building the list.  [f] may add to [t]; the
    iteration sees the entries as they were when it began. *)

val pp : Ir.Prog.t -> Format.formatter -> t -> unit
