(** Depth-first search with edge classification.

    [findgmod]'s correctness argument (Lemmas 1 and 2 of the paper)
    speaks of tree, forward, back and cross edges of the depth-first
    search forest over the call multi-graph; this module computes that
    classification so the test suite can check the lemmas directly on
    the analyzer's output. *)

type edge_kind =
  | Tree  (** First visit of the destination. *)
  | Forward  (** Destination is a proper DFS descendant, already visited. *)
  | Back  (** Destination is a DFS ancestor (possibly the source itself). *)
  | Cross  (** Destination in an already-finished subtree. *)

type t = {
  pre : int array;  (** Preorder (discovery) number per node, from 0. *)
  post : int array;  (** Postorder (finish) number per node, from 0. *)
  parent : int array;  (** DFS-tree parent, [-1] for roots. *)
  kind : edge_kind array;  (** Classification per edge id. *)
  order : int array;  (** Nodes in discovery order. *)
}

val run : ?roots:int list -> Digraph.t -> t
(** Search from each root in turn (default: nodes [0, 1, ...] so every
    node is covered), iteratively.  With explicit [roots], nodes not
    reached from them keep [pre = -1], [post = -1], and the
    classification of edges touching them is meaningless. *)

val is_ancestor : t -> anc:int -> desc:int -> bool
(** [true] iff [anc] is an ancestor of (or equal to) [desc] in the DFS
    forest, judged by pre/post intervals. *)
