(** The call multi-graph [C = (N_C, E_C)] of §2: one node per
    procedure, one edge per call site, built together with its
    condensation.

    Edge ids coincide with call-site ids — the builder inserts edges in
    increasing [sid] — so per-site data needs no indirection.

    The record is private: the graph and its condensation ([scc],
    searched from main first, so each component's [entry] is where
    Figure 2's [search(main)] enters it) are computed together by
    {!build} or {!restrict} and cannot drift apart.  GMOD, GUSE,
    MUSTMOD and the incremental engine's dirty region all read this
    one condensation. *)

type t = private {
  prog : Ir.Prog.t;
  graph : Graphs.Digraph.t;  (** Node = pid; edge id = sid. *)
  scc : Graphs.Scc.t;  (** Condensation of [graph], [first_root = main]. *)
}

val build : Ir.Prog.t -> t

val with_prog : t -> Ir.Prog.t -> t
(** The same graph and condensation over an edited program whose call
    sites are unchanged (a body edit). *)

val restrict : t -> keep:(Ir.Prog.site -> bool) -> t
(** The sub-multi-graph of the call sites satisfying [keep], with its
    own condensation — e.g. the [C_i] of the nesting extension.  Its
    edge ids are no longer site ids. *)

val reachable_from_main : t -> Bitvec.t
(** Procedures reachable from the main block by call chains (main
    included).  The paper assumes every procedure is reachable;
    workload generators guarantee it, and the test suite checks it with
    this. *)

val pp_stats : Format.formatter -> t -> unit
(** One line: procedure, call-site and SCC counts. *)
