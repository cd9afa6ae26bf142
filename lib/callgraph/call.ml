module Digraph = Graphs.Digraph
module Prog = Ir.Prog

type t = {
  prog : Prog.t;
  graph : Digraph.t;
  scc : Graphs.Scc.t;
}

let nodes_metric = Obs.Metric.gauge "callgraph.call.nodes"
let edges_metric = Obs.Metric.gauge "callgraph.call.edges"

let of_sites prog ~keep =
  let b = Digraph.Builder.create ~nodes:(Prog.n_procs prog) () in
  Prog.iter_sites prog (fun s ->
      if keep s then
        ignore (Digraph.Builder.add_edge b ~src:s.Prog.caller ~dst:s.Prog.callee));
  let graph = Digraph.Builder.freeze b in
  { prog; graph; scc = Graphs.Scc.compute ~first_root:prog.Prog.main graph }

let build prog =
  Obs.Span.with_ "callgraph.call" @@ fun () ->
  (* Site ids are dense and iterated in order, so edge id = sid. *)
  let t = of_sites prog ~keep:(fun _ -> true) in
  Obs.Metric.set nodes_metric (Digraph.n_nodes t.graph);
  Obs.Metric.set edges_metric (Digraph.n_edges t.graph);
  t

let with_prog t prog = { t with prog }
let restrict t ~keep = of_sites t.prog ~keep

let reachable_from_main t = Graphs.Reach.from t.graph t.prog.Prog.main

let pp_stats ppf t =
  Format.fprintf ppf "%d procedures, %d call sites, %d SCCs"
    (Digraph.n_nodes t.graph) (Digraph.n_edges t.graph) t.scc.Graphs.Scc.n_comps
