(** Directed multi-graphs over dense integer nodes.

    Both graphs the paper manipulates — the call multi-graph [C] and
    the binding multi-graph [β] — are multi-graphs: two procedures may
    be connected by several call sites, and one formal may be bound to
    another at several sites.  Edges therefore have identities
    ([edge_id]), so clients can attach payloads (call sites, binding
    functions) in side arrays indexed by edge id.

    Graphs are built through a mutable {!Builder} and then frozen into
    an immutable compressed-sparse-row representation, which the
    linear-time algorithms traverse without allocation. *)

type node = int
(** Nodes are [0 .. n_nodes g - 1]. *)

type edge_id = int
(** Edge ids are [0 .. n_edges g - 1], in order of insertion. *)

type t
(** A frozen directed multi-graph. *)

(** Mutable graph under construction. *)
module Builder : sig
  type graph := t
  type t

  val create : ?nodes:int -> unit -> t
  (** [create ~nodes ()] starts a builder with [nodes] pre-allocated
      nodes (default 0). *)

  val add_node : t -> node
  (** Allocate and return a fresh node. *)

  val add_edge : t -> src:node -> dst:node -> edge_id
  (** Append an edge; both endpoints must already exist.  Returns the
      id the edge will carry in the frozen graph. *)

  val n_nodes : t -> int
  val n_edges : t -> int

  val freeze : t -> graph
  (** Produce the immutable graph.  The builder remains usable, but
      later mutations do not affect already-frozen graphs. *)
end

val n_nodes : t -> int
val n_edges : t -> int

val edge_src : t -> edge_id -> node
val edge_dst : t -> edge_id -> node

val iter_succ : t -> node -> (node -> unit) -> unit
(** Visit the destination of every out-edge of a node (with
    multiplicity, in insertion order). *)

val nth_succ : t -> node -> int -> node
(** [nth_succ g v i] is the destination of [v]'s [i]-th out-edge
    ([0 <= i < out_degree g v], insertion order), read straight from
    the frozen rows — the cursor step of an iterative DFS. *)

val iter_out_edges : t -> node -> (edge_id -> node -> unit) -> unit
(** Visit every out-edge of a node as [(edge id, destination)]. *)

val fold_out_edges : t -> node -> init:'a -> f:('a -> edge_id -> node -> 'a) -> 'a

val succ_list : t -> node -> node list
(** Successors of a node, with multiplicity. *)

val out_degree : t -> node -> int

val iter_edges : t -> (edge_id -> node -> node -> unit) -> unit
(** Visit every edge as [(id, src, dst)], by increasing id. *)

val reverse : t -> t
(** Graph with every edge flipped.  Edge ids are preserved: edge [e]
    of [reverse g] runs from [edge_dst g e] to [edge_src g e]. *)

val of_edges : nodes:int -> (node * node) list -> t
(** Convenience constructor; edge ids follow list order. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: one [src -> dst] line per edge. *)
