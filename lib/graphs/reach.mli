(** Reachability over directed graphs.

    [GMOD] is "a generalization of the reachability problem" (§4):
    [GMOD(p)] collects effects of every procedure reachable from [p].
    This module is the brute-force form of that statement — one DFS per
    source — which the baseline library and the test oracle build on. *)

val from : Digraph.t -> Digraph.node -> Bitvec.t
(** [from g v] is the set of nodes reachable from [v], including [v]
    itself (the paper follows Tarjan's empty-path convention). *)

val all : Digraph.t -> Bitvec.t array
(** [all g] is [from g v] for every [v] — [O(N·(N+E))]. *)

val reaches : Digraph.t -> src:Digraph.node -> dst:Digraph.node -> bool
