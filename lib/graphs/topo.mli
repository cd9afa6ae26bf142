(** Topological order of a DAG (Kahn's algorithm).

    A test oracle: the tests use it to validate the reverse-topological
    numbering that {!Scc.compute} promises.  No solver uses it — Figure
    1's leaves-to-roots pass reads its order from the condensation
    {!Scc.compute} builds. *)

val sort : Digraph.t -> Digraph.node list option
(** [sort g] is [Some order] with every edge pointing forward in
    [order], or [None] if [g] has a cycle. *)

val reverse_post_order : Digraph.t -> Digraph.node list
(** Nodes in reverse postorder of a full DFS — a topological order
    whenever the graph is acyclic, defined (but not topological) on
    cyclic graphs too. *)
