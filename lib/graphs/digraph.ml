(* Frozen graphs use compressed sparse rows: out-edges of node [v] are
   the edge ids in [adj_edges.(adj_start.(v)) ..
   adj_edges.(adj_start.(v+1) - 1)].  Edge endpoints live in flat
   arrays indexed by edge id, so reversing a graph or attaching
   per-edge payloads needs no pointer chasing. *)

type node = int
type edge_id = int

type t = {
  n_nodes : int;
  src : int array; (* edge id -> source node *)
  dst : int array; (* edge id -> destination node *)
  adj_start : int array; (* node -> first index into adj_edges; length n_nodes+1 *)
  adj_edges : int array; (* edge ids grouped by source, insertion order within a source *)
}

module Builder = struct
  type t = {
    mutable nodes : int;
    mutable edges_rev : (int * int) list;
    mutable n_edges : int;
  }

  let create ?(nodes = 0) () =
    if nodes < 0 then invalid_arg "Digraph.Builder.create";
    { nodes; edges_rev = []; n_edges = 0 }

  let add_node b =
    let v = b.nodes in
    b.nodes <- v + 1;
    v

  let add_edge b ~src ~dst =
    if src < 0 || src >= b.nodes || dst < 0 || dst >= b.nodes then
      invalid_arg
        (Printf.sprintf "Digraph.Builder.add_edge: (%d, %d) with %d nodes" src dst
           b.nodes);
    let id = b.n_edges in
    b.edges_rev <- (src, dst) :: b.edges_rev;
    b.n_edges <- id + 1;
    id

  let n_nodes b = b.nodes
  let n_edges b = b.n_edges

  let freeze b =
    let m = b.n_edges in
    let src = Array.make m 0 and dst = Array.make m 0 in
    (* edges_rev holds edges in reverse insertion order. *)
    let rec fill i = function
      | [] -> ()
      | (s, d) :: rest ->
        src.(i) <- s;
        dst.(i) <- d;
        fill (i - 1) rest
    in
    fill (m - 1) b.edges_rev;
    let adj_start = Array.make (b.nodes + 1) 0 in
    Array.iter (fun s -> adj_start.(s + 1) <- adj_start.(s + 1) + 1) src;
    for v = 1 to b.nodes do
      adj_start.(v) <- adj_start.(v) + adj_start.(v - 1)
    done;
    let cursor = Array.copy adj_start in
    let adj_edges = Array.make m 0 in
    for e = 0 to m - 1 do
      let s = src.(e) in
      adj_edges.(cursor.(s)) <- e;
      cursor.(s) <- cursor.(s) + 1
    done;
    { n_nodes = b.nodes; src; dst; adj_start; adj_edges }
end

let n_nodes g = g.n_nodes
let n_edges g = Array.length g.src

let check_edge g e =
  if e < 0 || e >= Array.length g.src then invalid_arg "Digraph: bad edge id"

let edge_src g e =
  check_edge g e;
  g.src.(e)

let edge_dst g e =
  check_edge g e;
  g.dst.(e)

let check_node g v =
  if v < 0 || v >= g.n_nodes then invalid_arg "Digraph: bad node"

let iter_out_edges g v f =
  check_node g v;
  for i = g.adj_start.(v) to g.adj_start.(v + 1) - 1 do
    let e = g.adj_edges.(i) in
    f e g.dst.(e)
  done

let iter_succ g v f = iter_out_edges g v (fun _ w -> f w)

let nth_succ g v i = g.dst.(g.adj_edges.(g.adj_start.(v) + i))

let fold_out_edges g v ~init ~f =
  let acc = ref init in
  iter_out_edges g v (fun e w -> acc := f !acc e w);
  !acc

let succ_list g v =
  List.rev (fold_out_edges g v ~init:[] ~f:(fun acc _ w -> w :: acc))

let out_degree g v =
  check_node g v;
  g.adj_start.(v + 1) - g.adj_start.(v)

let iter_edges g f =
  for e = 0 to Array.length g.src - 1 do
    f e g.src.(e) g.dst.(e)
  done

let reverse g =
  let b = Builder.create ~nodes:g.n_nodes () in
  (* Re-adding edges in id order preserves ids under the flip. *)
  iter_edges g (fun _ s d -> ignore (Builder.add_edge b ~src:d ~dst:s));
  Builder.freeze b

let of_edges ~nodes edges =
  let b = Builder.create ~nodes () in
  List.iter (fun (s, d) -> ignore (Builder.add_edge b ~src:s ~dst:d)) edges;
  Builder.freeze b

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph (%d nodes, %d edges)" g.n_nodes (n_edges g);
  iter_edges g (fun e s d -> Format.fprintf ppf "@,  e%d: %d -> %d" e s d);
  Format.fprintf ppf "@]"
