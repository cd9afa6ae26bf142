(** Derivation provenance for the analysis facts.

    Every bit the solvers set has a {e first derivation}: the β edge
    that carried an [RMOD] bit to its formal (eq. 6), the local
    def-site, reference binding or call-graph edge that put a variable
    into [IMOD+]/[GMOD] (eqs. 4–5), the §5 closure step that introduced
    an alias pair.  This module records one compact reason per
    first-set event — a derivation {e forest} over the fact space — so
    [sidefx explain] can walk reasons back to source-level evidence
    without re-running any solver.

    Construction is a post-pass over the finished solutions: breadth-
    first searches over β (for [RMOD]/[RUSE]) and over the call graph
    (for [GMOD]/[GUSE] and [MUSTMOD], one search over one site index)
    that touch bits only through [Bitvec.get] and
    [Bitvec.iter_uncounted], never through counted operations
    ([fold]/[iter] included) — so op-count metrics are identical
    whether or not provenance is on.  Its cost is the set bits plus,
    for each fact, the call sites of its procedure ([GMOD]/[MUSTMOD]
    propagation) or its own sites' arguments ([IMOD+] seeds).  Alias
    reasons are the exception: the §5 fixpoint discovers pairs in an
    order no post-pass can reconstruct, so {!Alias.compute} records
    them inline into a pre-created {!alias_table}. *)

(** Why a β node's [RMOD] (or [RUSE]) bit is set. *)
type rmod_reason =
  | Rseed  (** The formal is in its owner's (folded) [IMOD]. *)
  | Redge of int
      (** β edge id: the bit flowed edge-backwards (eq. 6) from the
          edge's destination, which was derived first. *)

(** Why a variable is in a procedure's [GMOD] (or [GUSE]).  The first
    three are the [IMOD+] seed cases of eq. 5 (exhaustive over the §3.3
    nesting fold); the last is eq. 4's propagation. *)
type gmod_reason =
  | Glocal  (** Assigned (used) directly in the procedure's own body. *)
  | Gbind of { site : int; arg_pos : int }
      (** Passed by reference at this site into a formal whose
          [RMOD]/[RUSE] holds — the caller-side projection of eq. 5. *)
  | Gnested of int
      (** Escaped from this nested child procedure (pid): the variable
          is in the child's [IMOD+] and not local to it (§3.3). *)
  | Gcall of int
      (** Call site id: the caller inherits the bit from the callee's
          [GMOD] minus the callee's locals (eq. 4). *)

(** Why an alias pair holds on entry to a procedure (§5 introduction
    and propagation rules). *)
type alias_reason =
  | Apositions of { site : int; pos_i : int; pos_j : int }
      (** The same actual is bound by reference at two positions. *)
  | Avisible of { site : int; pos : int }
      (** A by-reference actual remains visible inside the callee. *)
  | Apropagated of { site : int; from_pair : int * int }
      (** A pair already holding in the caller flows through the
          site's reference bindings. *)
  | Ainherited of { parent : int }
      (** The pair holds in the lexical parent, hence here (§3.3). *)
  | Apointsto of { site : int; pos : int }
      (** A dereference actual [*...*p] at [pos] may name the other
          member of the pair, per the points-to projection
          ({!Ptsto}). *)

type alias_table = (int * int * int, alias_reason) Hashtbl.t
(** Keyed by [(pid, x, y)] with [x <= y] ({!Alias.norm}); holds the
    first recorded reason for each pair. *)

(** Why a variable is in a procedure's [MUSTMOD] (the must-modify dual
    of [GMOD], {!Mustmod}).  A reason is single-step evidence — the
    first grounding found by a breadth-first search from the
    procedures' own definite assignments — not a full path proof:
    [Mcall] cites {e one} contributing call site even when the fact
    needed several branches to agree. *)
type must_reason =
  | Mdef  (** Definitely assigned by the procedure's own statements. *)
  | Mcall of { site : int; pre : int }
      (** Inherited through this call site from the callee's
          [MUSTMOD]; [pre] is the callee-side variable (the bound
          formal, or the variable itself when it passes through). *)

type must_table = (int * int, must_reason) Hashtbl.t
(** Keyed by [(pid, vid)]; holds the first recorded reason for each
    [MUSTMOD] fact. *)

type t = {
  rmod : rmod_reason option array;  (** By β node. *)
  ruse : rmod_reason option array;  (** By β node. *)
  gmod : (int * int, gmod_reason) Hashtbl.t;  (** By [(pid, vid)]. *)
  guse : (int * int, gmod_reason) Hashtbl.t;  (** By [(pid, vid)]. *)
  alias : alias_table;
  must : must_table;
}

val create_alias_table : unit -> alias_table

val compute :
  Ir.Info.t ->
  binding:Callgraph.Binding.t ->
  imod:Bitvec.t array ->
  iuse:Bitvec.t array ->
  rmod:Rmod.result ->
  ruse:Rmod.result ->
  imod_plus:Bitvec.t array ->
  iuse_plus:Bitvec.t array ->
  gmod:Bitvec.t array ->
  guse:Bitvec.t array ->
  mustmod:Bitvec.t array ->
  intra:Bitvec.t array ->
  alias:alias_table ->
  t
(** Build the derivation forest for a finished analysis.  [imod]/
    [iuse] are the {e folded} local sets the [RMOD] solver was seeded
    with; [imod_plus]/[iuse_plus] the folded eq. 5 families;
    [mustmod]/[intra] the per-procedure [MUSTMOD] and call-free
    [IMUSTDEF] sets ({!Mustmod.result}).  Every set [RMOD]/[RUSE] node
    and every [(p, v)] with [v ∈ GMOD(p)] (resp. [GUSE], [MUSTMOD])
    receives a reason; the alias table is stored as given. *)

val rmod_reasons : t -> side:[ `Mod | `Use ] -> rmod_reason option array
val gmod_reasons : t -> side:[ `Mod | `Use ] -> (int * int, gmod_reason) Hashtbl.t

val alias_reason : t -> proc:int -> int -> int -> alias_reason option
(** Reason the (normalised) pair holds on entry to [proc]. *)

val must_reason_of : t -> proc:int -> int -> must_reason option
(** Reason a variable is in [MUSTMOD(proc)]. *)
