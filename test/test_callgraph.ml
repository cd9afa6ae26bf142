(* Call multi-graph and binding multi-graph construction tests,
   including the §3.3 lexical-scoping rule and §3.1 size relations. *)

let compile = Helpers.compile

let test_call_graph_edges_are_sites () =
  let p =
    compile
      {|program m;
procedure f();
begin
  skip;
end;
procedure g();
begin
  call f();
  call f();
end;
begin
  call g();
  call f();
end.|}
  in
  let c = Callgraph.Call.build p in
  Alcotest.(check int) "edges = sites" (Ir.Prog.n_sites p)
    (Graphs.Digraph.n_edges c.Callgraph.Call.graph);
  Ir.Prog.iter_sites p (fun s ->
      Alcotest.(check int) "edge src = caller" s.Ir.Prog.caller
        (Graphs.Digraph.edge_src c.Callgraph.Call.graph s.Ir.Prog.sid);
      Alcotest.(check int) "edge dst = callee" s.Ir.Prog.callee
        (Graphs.Digraph.edge_dst c.Callgraph.Call.graph s.Ir.Prog.sid))

let test_reachability () =
  let p =
    compile
      {|program m;
procedure unreachable();
begin
  skip;
end;
procedure used();
begin
  skip;
end;
begin
  call used();
end.|}
  in
  let c = Callgraph.Call.build p in
  let r = Callgraph.Call.reachable_from_main c in
  Alcotest.(check bool) "main" true (Bitvec.get r p.Ir.Prog.main);
  Alcotest.(check bool) "used" true (Bitvec.get r (Helpers.proc_id p "used"));
  Alcotest.(check bool) "unreachable" false
    (Bitvec.get r (Helpers.proc_id p "unreachable"))

(* β: one node per by-ref formal, one edge per formal-to-formal binding
   event. *)
let binding_prog =
  compile
    {|program m;
var g : int;
var arr : array[5] of int;
procedure leaf(var z : int);
begin
  z := 1;
end;
procedure mid(var x : int; y : int; var w : array[5] of int);
begin
  call leaf(x);       // edge mid.x -> leaf.z
  call leaf(g);       // no edge: actual is a global
  call leaf(w[y]);    // edge mid.w -> leaf.z, via element
  call leaf(x);       // second edge mid.x -> leaf.z (multi-graph)
end;
begin
  call mid(g, 2, arr);
end.|}

let test_binding_nodes () =
  let b = Callgraph.Binding.build (Ir.Info.make binding_prog) in
  (* by-ref formals: leaf.z, mid.x, mid.w (mid.y is by-value). *)
  Alcotest.(check int) "nodes" 3 (Callgraph.Binding.n_nodes b);
  Alcotest.(check bool) "by-value formal not a node" true
    (Callgraph.Binding.node_opt b (Helpers.var_id binding_prog "mid.y") = None);
  Alcotest.(check bool) "global not a node" true
    (Callgraph.Binding.node_opt b (Helpers.var_id binding_prog "g") = None)

let test_binding_edges () =
  let b = Callgraph.Binding.build (Ir.Info.make binding_prog) in
  Alcotest.(check int) "three binding events" 3 (Callgraph.Binding.n_edges b);
  let x = Callgraph.Binding.node b (Helpers.var_id binding_prog "mid.x") in
  let w = Callgraph.Binding.node b (Helpers.var_id binding_prog "mid.w") in
  let z = Callgraph.Binding.node b (Helpers.var_id binding_prog "leaf.z") in
  let g = b.Callgraph.Binding.graph in
  let edges = ref [] in
  Graphs.Digraph.iter_edges g (fun e s d -> edges := (e, s, d) :: !edges);
  let from_x = List.filter (fun (_, s, d) -> s = x && d = z) !edges in
  let from_w = List.filter (fun (_, s, d) -> s = w && d = z) !edges in
  Alcotest.(check int) "two events x->z" 2 (List.length from_x);
  Alcotest.(check int) "one event w->z" 1 (List.length from_w);
  (* the w edge is via an array element *)
  List.iter
    (fun (e, _, _) ->
      Alcotest.(check bool) "via_element" true
        b.Callgraph.Binding.edges.(e).Callgraph.Binding.via_element)
    from_w;
  List.iter
    (fun (e, _, _) ->
      Alcotest.(check bool) "whole-var binding" false
        b.Callgraph.Binding.edges.(e).Callgraph.Binding.via_element)
    from_x

let test_scoping_rule () =
  (* §3.3 problem 2: a formal of outer passed at a site inside nested. *)
  let p =
    compile
      {|program m;
var g : int;
procedure target(var t : int);
begin
  t := 1;
end;
procedure outer(var f : int);
  procedure nested();
  begin
    call target(f);
  end;
begin
  call nested();
end;
begin
  call outer(g);
end.|}
  in
  let b = Callgraph.Binding.build (Ir.Info.make p) in
  Alcotest.(check int) "one edge" 1 (Callgraph.Binding.n_edges b);
  let f = Callgraph.Binding.node b (Helpers.var_id p "outer.f") in
  let t = Callgraph.Binding.node b (Helpers.var_id p "target.t") in
  Graphs.Digraph.iter_edges b.Callgraph.Binding.graph (fun _ s d ->
      Alcotest.(check int) "src is outer.f" f s;
      Alcotest.(check int) "dst is target.t" t d)

let prop_beta_size_relation seed =
  (* §3.1: E_β ≤ µ_a·E_C and every β node touches a by-ref formal. *)
  let p = Helpers.flat_of_seed seed in
  let b = Callgraph.Binding.build (Ir.Info.make p) in
  let mu_a = Callgraph.Binding.mu_a p in
  float_of_int (Callgraph.Binding.n_edges b)
  <= (mu_a *. float_of_int (Ir.Prog.n_sites p)) +. 1e-9

let prop_beta_nodes_are_ref_formals seed =
  let p = Helpers.flat_of_seed seed in
  let b = Callgraph.Binding.build (Ir.Info.make p) in
  let ok = ref true in
  for node = 0 to Callgraph.Binding.n_nodes b - 1 do
    if not (Ir.Prog.is_ref_formal (Ir.Prog.var p (Callgraph.Binding.var b node))) then
      ok := false
  done;
  !ok

let prop_generated_all_reachable seed =
  let p = Helpers.nested_of_seed seed in
  let c = Callgraph.Call.build p in
  Bitvec.cardinal (Callgraph.Call.reachable_from_main c) = Ir.Prog.n_procs p

let () =
  Helpers.run "callgraph"
    [
      ( "call graph",
        [
          Alcotest.test_case "edge ids are site ids" `Quick
            test_call_graph_edges_are_sites;
          Alcotest.test_case "reachability from main" `Quick test_reachability;
        ] );
      ( "binding graph",
        [
          Alcotest.test_case "node set" `Quick test_binding_nodes;
          Alcotest.test_case "binding events" `Quick test_binding_edges;
          Alcotest.test_case "formal bound inside nested proc (3.3)" `Quick
            test_scoping_rule;
          Helpers.qtest ~count:60 "E_beta <= mu_a * E_C" Helpers.arb_flat_prog
            prop_beta_size_relation;
          Helpers.qtest ~count:60 "nodes are by-ref formals" Helpers.arb_flat_prog
            prop_beta_nodes_are_ref_formals;
          Helpers.qtest ~count:60 "generator keeps everything reachable"
            Helpers.arb_nested_prog prop_generated_all_reachable;
        ] );
    ]
