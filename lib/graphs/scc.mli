(** Strongly-connected components and their condensation, via an
    iterative version of Tarjan's algorithm [Tarj 72] — the engine
    under both halves of the paper: Figure 1 condenses the binding
    multi-graph with it, and Figure 2's [findgmod] is a direct
    extension of it.

    This is the only graph-only Tarjan in the tree.  A graph is
    condensed once, where it is built ({!Callgraph.Call.build},
    {!Callgraph.Binding.build}), and every solver over it — RMOD and
    RUSE on β; GMOD, GUSE (flat, nested and sectioned), MUSTMOD and the
    incremental engine's dirty region on the call graph — reads the
    same record.  The one search fused with propagation is
    [Core.Gmod.findgmod]; it replays this search inside each component,
    from the component's [entry].

    Components are numbered in the order Tarjan closes them, which is
    reverse topological order of the condensation: for any edge
    [u -> v] with [comp u <> comp v], [comp u > comp v].  Solvers that
    walk components [0, 1, 2, ...] therefore see every successor
    component before its predecessors — exactly the leaves-to-roots
    traversal step (3) of Figure 1 asks for. *)

(** The wavefront leveling of a condensation: components sharing a
    level have no paths between them, so a solver may evaluate them
    concurrently once every lower level is done (see {!Par.Wavefront}). *)
type levels = {
  level : int array;  (** Per component: [0] at sinks, else [1 + max] over successors. *)
  n_levels : int;
  by_level : int array array;
      (** Components of each level, ascending component id. *)
  max_width : int;
      (** Largest level population — the available parallelism. *)
}

type t = {
  n_comps : int;  (** Number of strongly-connected components. *)
  comp : int array;  (** [comp.(v)] is the component of node [v]. *)
  members : Digraph.node list array;  (** Per component, its nodes (ascending). *)
  entry : Digraph.node array;
      (** Per component, the member at which the search first enters it
          (and at which it closes): the search runs from [first_root]
          first, then from every unvisited node in index order,
          successors in insertion order.  A per-component Figure-2
          traversal started there replays that search inside the
          component. *)
  succs : int array array;
      (** Per component, its successor components: one entry per
          distinct inter-component edge target, each smaller than the
          component itself. *)
  preds : int array array;
      (** The transpose of [succs], ascending. *)
  levels : levels;
}

val compute : ?first_root:Digraph.node -> Digraph.t -> t
(** Tarjan's algorithm over every root ([first_root] first, when
    given), iteratively (no OS-stack recursion), plus the deduplicated
    condensation edges and their levels, in [O(N + E)].  Graph work
    only — performs no bit-vector operations. *)

val of_comp_succs : int array array -> levels
(** Level a condensation given per-component successor arrays.
    Component ids must be reverse-topological (every inter-component
    edge points to a smaller id); duplicate edges and self-loops are
    ignored.  O(N + E). *)
