module Digraph = Graphs.Digraph
module Prog = Ir.Prog
module Expr = Ir.Expr

type edge_info = {
  site : int;
  arg_pos : int;
  via_element : bool;
}

type t = {
  prog : Prog.t;
  graph : Digraph.t;
  node_of_var : int array;
  var_of_node : int array;
  edges : edge_info array;
  scc : Graphs.Scc.t;
}

let nodes_metric = Obs.Metric.gauge "callgraph.beta.nodes"
let edges_metric = Obs.Metric.gauge "callgraph.beta.edges"

let build info =
  Obs.Span.with_ "callgraph.binding" @@ fun () ->
  let prog = Ir.Info.prog info in
  let nv = Prog.n_vars prog in
  let node_of_var = Array.make nv (-1) in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  Prog.iter_vars prog (fun v ->
      if Prog.is_ref_formal v then begin
        node_of_var.(v.Prog.vid) <- !n_nodes;
        nodes := v.Prog.vid :: !nodes;
        incr n_nodes
      end);
  let var_of_node = Array.of_list (List.rev !nodes) in
  let b = Digraph.Builder.create ~nodes:!n_nodes () in
  let edges = ref [] in
  Prog.iter_sites prog (fun s ->
      let callee = Prog.proc prog s.Prog.callee in
      Array.iteri
        (fun arg_pos arg ->
          match arg with
          | Prog.Arg_value _ -> ()
          | Prog.Arg_ref lv ->
            let dst = node_of_var.(callee.Prog.formals.(arg_pos)) in
            assert (dst >= 0);
            (* A dereference actual names whatever cell [*...*ptr]
               reaches: one binding event per by-ref formal the
               points-to projection says it may name. *)
            let via_element = match lv with Expr.Lvar _ -> false | _ -> true in
            List.iter
              (fun base ->
                let src = node_of_var.(base) in
                if src >= 0 then begin
                  ignore (Digraph.Builder.add_edge b ~src ~dst);
                  edges := { site = s.Prog.sid; arg_pos; via_element } :: !edges
                end)
              (Ir.Info.lvalue_cells info lv))
        s.Prog.args);
  let graph = Digraph.Builder.freeze b in
  let t =
    {
      prog;
      graph;
      node_of_var;
      var_of_node;
      edges = Array.of_list (List.rev !edges);
      scc = Graphs.Scc.compute graph;
    }
  in
  Obs.Metric.set nodes_metric (Digraph.n_nodes t.graph);
  Obs.Metric.set edges_metric (Digraph.n_edges t.graph);
  t

let with_prog t prog = { t with prog }

let n_nodes t = Digraph.n_nodes t.graph
let n_edges t = Digraph.n_edges t.graph

let node t vid =
  let n = t.node_of_var.(vid) in
  if n < 0 then
    invalid_arg
      (Printf.sprintf "Binding.node: %s is not a by-reference formal"
         (Prog.var t.prog vid).Prog.vname);
  n

let node_opt t vid =
  let n = t.node_of_var.(vid) in
  if n < 0 then None else Some n

let var t node = t.var_of_node.(node)

let edges_by_level t =
  let dp = max 1 (Prog.max_level t.prog) in
  let counts = Array.make (dp + 1) 0 in
  Array.iter
    (fun e ->
      let s = Prog.site t.prog e.site in
      let lvl = (Prog.proc t.prog s.Prog.callee).Prog.level in
      counts.(lvl) <- counts.(lvl) + 1)
    t.edges;
  List.init dp (fun i -> (i + 1, counts.(i + 1)))

let mu_f prog =
  let total = ref 0 and count = ref 0 in
  Prog.iter_procs prog (fun pr ->
      if pr.Prog.pid <> prog.Prog.main then begin
        total := !total + Array.length pr.Prog.formals;
        incr count
      end);
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count

let mu_a prog =
  let total = ref 0 and count = ref 0 in
  Prog.iter_sites prog (fun s ->
      total := !total + Array.length s.Prog.args;
      incr count);
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count

let pp_stats ppf t =
  let np = Prog.n_procs t.prog and ns = Prog.n_sites t.prog in
  let nb = n_nodes t and eb = n_edges t in
  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  Format.fprintf ppf
    "C: %d nodes, %d edges; beta: %d nodes, %d edges; mu_f = %.2f, mu_a = %.2f; \
     size ratio N_beta/N_C = %.2f, E_beta/E_C = %.2f"
    np ns nb eb (mu_f t.prog) (mu_a t.prog) (ratio nb np) (ratio eb ns)
