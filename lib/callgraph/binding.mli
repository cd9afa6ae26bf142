(** The binding multi-graph [β = (N_β, E_β)] of §3.1 — the paper's new
    data structure.

    Nodes stand for by-reference formal parameters (written [fp_i^p] in
    the paper).  There is one edge per {e binding event}: call site [s]
    in a procedure binds actual [a] to the by-reference formal [f] of
    the callee, and [a] is itself (an element of) a by-reference formal
    of some procedure — by the §3.3 scoping rule, not necessarily the
    innermost procedure containing [s], just a lexically visible one.
    The edge runs from the {e actual's} formal to the {e callee's}
    formal, matching equation (6)'s right-hand sides: [RMOD] flows
    edge-backwards, from callee to caller.

    By-value formals never carry modifications out of their procedure,
    so they are not nodes; a by-value actual generates no edge (its
    evaluation is a local {!Frontend.Local} use, not a binding).

    A call site passing only non-formal variables contributes no edges,
    and the graph is a multi-graph: the same formal pair may be linked
    once per site that binds them. *)

type edge_info = {
  site : int;  (** The call site this binding event belongs to. *)
  arg_pos : int;  (** Which argument position (0-based). *)
  via_element : bool;
      (** [true] when the actual is an array {e element} [A[i]] of a
          formal array [A] rather than the whole variable — the case
          where §6's binding function [g_e] is not the identity.  At
          the bit granularity of §3, the edge still (conservatively)
          links [A] to the callee's formal. *)
}

type t = private {
  prog : Ir.Prog.t;
  graph : Graphs.Digraph.t;  (** Nodes are β-node indices. *)
  node_of_var : int array;  (** vid → β node, or [-1]. *)
  var_of_node : int array;  (** β node → vid. *)
  edges : edge_info array;  (** Indexed by β edge id. *)
  scc : Graphs.Scc.t;
      (** Condensation of [graph], computed with it: RMOD and RUSE
          both solve over it. *)
}

val build : Ir.Info.t -> t
(** Build the β binding multigraph of [Ir.Info.prog info].  A
    dereference actual contributes one binding edge per by-ref formal
    among the variables it may name ({!Ir.Info.lvalue_cells}).  The
    result keeps only the program, not [info].  Linear in the size of
    the program's site table (§3.1). *)

val with_prog : t -> Ir.Prog.t -> t
(** The same graph and condensation over an edited program whose
    binding events are unchanged (a body edit). *)

val n_nodes : t -> int
val n_edges : t -> int

val node : t -> int -> int
(** β node of a by-reference formal's vid.  Raises [Invalid_argument]
    for other variables. *)

val node_opt : t -> int -> int option

val var : t -> int -> int
(** vid of a β node. *)

val edges_by_level : t -> (int * int) list
(** [(level, count)] per nesting level [1 .. max 1 dP]: how many β
    edges bind into a formal whose owner is declared at that level.
    Levels beyond 1 only appear in nested (Pascal-style) programs;
    [sidefx stats] and [sidefx profile] print this so graph-shape
    vocabulary agrees across commands. *)

val pp_stats : Format.formatter -> t -> unit
(** Sizes of β next to the sizes of [C], with the paper's [µ_f]/[µ_a]
    averages and the resulting blow-up factor [k] (§3.1's size
    comparison). *)

val mu_f : Ir.Prog.t -> float
(** Average number of formals per procedure (main excluded). *)

val mu_a : Ir.Prog.t -> float
(** Average number of actuals per call site. *)
