(* Graph kernel tests: CSR representation, Tarjan SCC against a
   reachability-based oracle, the condensation record, DFS
   classification, topo order, reachability. *)

module D = Graphs.Digraph
module Scc = Graphs.Scc
module Dfs = Graphs.Dfs

let mk nodes edges = D.of_edges ~nodes edges

(* --- digraph --- *)

let test_builder () =
  let b = D.Builder.create () in
  let a = D.Builder.add_node b in
  let c = D.Builder.add_node b in
  Alcotest.(check int) "ids" 0 a;
  Alcotest.(check int) "ids" 1 c;
  let e0 = D.Builder.add_edge b ~src:a ~dst:c in
  let e1 = D.Builder.add_edge b ~src:a ~dst:c in
  Alcotest.(check int) "edge ids" 0 e0;
  Alcotest.(check int) "multi-edge ids" 1 e1;
  let g = D.Builder.freeze b in
  Alcotest.(check int) "nodes" 2 (D.n_nodes g);
  Alcotest.(check int) "edges" 2 (D.n_edges g);
  Alcotest.(check (list int)) "succ with multiplicity" [ 1; 1 ] (D.succ_list g 0);
  Alcotest.(check int) "out degree" 2 (D.out_degree g 0);
  Alcotest.(check (list int)) "nth_succ reads the row" [ 1; 1 ]
    (List.init (D.out_degree g 0) (D.nth_succ g 0));
  Alcotest.(check int) "sink degree" 0 (D.out_degree g 1)

let test_edge_endpoints () =
  let g = mk 3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check int) "src" 1 (D.edge_src g 1);
  Alcotest.(check int) "dst" 2 (D.edge_dst g 1);
  let r = D.reverse g in
  Alcotest.(check int) "reversed src" 2 (D.edge_src r 1);
  Alcotest.(check int) "reversed dst" 1 (D.edge_dst r 1)

let test_bad_edge () =
  let b = D.Builder.create ~nodes:2 () in
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Digraph.Builder.add_edge: (0, 2) with 2 nodes") (fun () ->
      ignore (D.Builder.add_edge b ~src:0 ~dst:2))

(* --- SCC --- *)

(* Oracle: components via pairwise mutual reachability. *)
let scc_oracle g =
  let n = D.n_nodes g in
  let reach = Graphs.Reach.all g in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) = -1 then begin
      let c = !next in
      incr next;
      for w = v to n - 1 do
        if comp.(w) = -1 && Bitvec.get reach.(v) w && Bitvec.get reach.(w) v then
          comp.(w) <- c
      done
    end
  done;
  comp

let same_partition c1 c2 =
  let n = Array.length c1 in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if c1.(i) = c1.(j) <> (c2.(i) = c2.(j)) then ok := false
    done
  done;
  !ok

let test_scc_simple () =
  let g = mk 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  let r = Scc.compute g in
  Alcotest.(check int) "three components" 3 r.Scc.n_comps;
  Alcotest.(check bool) "cycle together" true (r.Scc.comp.(0) = r.Scc.comp.(1));
  Alcotest.(check bool) "cycle together" true (r.Scc.comp.(1) = r.Scc.comp.(2));
  Alcotest.(check bool) "tail separate" true (r.Scc.comp.(3) <> r.Scc.comp.(2));
  (* Reverse topological numbering: edges cross to smaller ids. *)
  D.iter_edges g (fun _ s d ->
      if r.Scc.comp.(s) <> r.Scc.comp.(d) then
        Alcotest.(check bool) "reverse topo" true (r.Scc.comp.(s) > r.Scc.comp.(d)))

let test_scc_self_loop () =
  let g = mk 2 [ (0, 0) ] in
  let r = Scc.compute g in
  Alcotest.(check int) "two singletons" 2 r.Scc.n_comps;
  Array.iteri
    (fun c ms ->
      Alcotest.(check (list int)) "singleton members" [ r.Scc.entry.(c) ] ms;
      Alcotest.(check int) "self-loop is no condensation edge" 0
        (Array.length r.Scc.succs.(c)))
    r.Scc.members

(* The condensation laws every solver relies on: members partition the
   nodes by [comp], each entry is a member, successor lists hold each
   inter-component edge target once and only smaller ids, [preds] is
   their transpose, and the levels put every component above its
   successors. *)
let check_condensation g r =
  let ok = ref true in
  let check b = if not b then ok := false in
  Array.iteri
    (fun c ms ->
      List.iter (fun v -> check (r.Scc.comp.(v) = c)) ms;
      check (List.mem r.Scc.entry.(c) ms);
      check (List.sort_uniq compare ms = ms))
    r.Scc.members;
  check
    (Array.fold_left (fun acc ms -> acc + List.length ms) 0 r.Scc.members
    = D.n_nodes g);
  let edges = Hashtbl.create 16 in
  D.iter_edges g (fun _ s d ->
      let cs = r.Scc.comp.(s) and cd = r.Scc.comp.(d) in
      if cs <> cd then Hashtbl.replace edges (cs, cd) ());
  let listed = ref 0 in
  Array.iteri
    (fun c cs ->
      Array.iteri
        (fun i cd ->
          check (cd < c);
          check (Hashtbl.mem edges (c, cd));
          check (not (Array.exists (( = ) cd) (Array.sub cs 0 i)));
          check (Array.mem c r.Scc.preds.(cd));
          check (r.Scc.levels.Scc.level.(c) > r.Scc.levels.Scc.level.(cd)))
        cs;
      listed := !listed + Array.length cs)
    r.Scc.succs;
  check (!listed = Hashtbl.length edges);
  Array.iteri
    (fun cd ps -> Array.iter (fun c -> check (Array.mem cd r.Scc.succs.(c))) ps)
    r.Scc.preds;
  check
    (Array.fold_left (fun acc ps -> acc + Array.length ps) 0 r.Scc.preds = !listed);
  !ok

let test_condense () =
  let g = mk 6 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2); (3, 4); (0, 4); (4, 5) ] in
  let r = Scc.compute g in
  Alcotest.(check int) "four comps" 4 r.Scc.n_comps;
  Alcotest.(check bool) "condensation laws" true (check_condensation g r);
  (* {0,1} reaches 4 twice (0 -> 4 and via {2,3}); listed once. *)
  let c01 = r.Scc.comp.(0) and c23 = r.Scc.comp.(2) and c4 = r.Scc.comp.(4) in
  Alcotest.(check (list int)) "deduplicated successors"
    (List.sort compare [ c23; c4 ])
    (List.sort compare (Array.to_list r.Scc.succs.(c01)));
  Alcotest.(check int) "four levels" 4 r.Scc.levels.Scc.n_levels

let arb_graph =
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 25 in
      let* m = 0 -- 60 in
      let* seed = 0 -- 100000 in
      return (n, m, seed))
  in
  QCheck.make gen ~print:(fun (n, m, s) -> Printf.sprintf "n=%d m=%d seed=%d" n m s)

let graph_of (n, m, seed) =
  Graphs.Gen.random (Random.State.make [| seed |]) ~nodes:n ~edges:m

let prop_scc_matches_oracle params =
  let g = graph_of params in
  same_partition (Scc.compute g).Scc.comp (scc_oracle g)

let prop_scc_reverse_topo params =
  let g = graph_of params in
  let r = Scc.compute g in
  let ok = ref true in
  D.iter_edges g (fun _ s d ->
      if r.Scc.comp.(s) <> r.Scc.comp.(d) && r.Scc.comp.(s) <= r.Scc.comp.(d) then
        ok := false);
  !ok

let prop_condensation_acyclic params =
  let g = graph_of params in
  check_condensation g (Scc.compute g)

(* [entry.(c)] is where a DFS from [first_root], then every other node
   in index order, first enters [c]: its earliest member in preorder. *)
let prop_entry_first_in_preorder (n, m, seed) =
  let g = graph_of (n, m, seed) in
  let first_root = seed mod n in
  let r = Scc.compute ~first_root g in
  let t = Dfs.run ~roots:(first_root :: List.init n Fun.id) g in
  Array.for_all2
    (fun e ms ->
      List.for_all (fun v -> t.Dfs.pre.(e) <= t.Dfs.pre.(v)) ms)
    r.Scc.entry r.Scc.members

(* --- DFS --- *)

let test_dfs_classification () =
  (* 0 -> 1 -> 2, 0 -> 2 (forward), 2 -> 0 (back), plus 3 -> 1 (cross,
     when 3 is searched after the first tree). *)
  let g = mk 4 [ (0, 1); (1, 2); (0, 2); (2, 0); (3, 1) ] in
  let t = Dfs.run g in
  Alcotest.(check bool) "tree" true (t.Dfs.kind.(0) = Dfs.Tree);
  Alcotest.(check bool) "tree" true (t.Dfs.kind.(1) = Dfs.Tree);
  Alcotest.(check bool) "forward" true (t.Dfs.kind.(2) = Dfs.Forward);
  Alcotest.(check bool) "back" true (t.Dfs.kind.(3) = Dfs.Back);
  Alcotest.(check bool) "cross" true (t.Dfs.kind.(4) = Dfs.Cross);
  Alcotest.(check bool) "ancestor" true (Dfs.is_ancestor t ~anc:0 ~desc:2);
  Alcotest.(check bool) "not ancestor" false (Dfs.is_ancestor t ~anc:3 ~desc:2)

let prop_dfs_edge_kinds params =
  (* Classification laws: tree/forward edges go to descendants, back
     edges to ancestors, cross edges to finished non-descendants. *)
  let g = graph_of params in
  let t = Dfs.run g in
  let ok = ref true in
  D.iter_edges g (fun e s d ->
      let anc_sd = Dfs.is_ancestor t ~anc:s ~desc:d in
      let anc_ds = Dfs.is_ancestor t ~anc:d ~desc:s in
      (match t.Dfs.kind.(e) with
      | Dfs.Tree -> if not (anc_sd && t.Dfs.parent.(d) = s) then ok := false
      | Dfs.Forward -> if not anc_sd then ok := false
      | Dfs.Back -> if not anc_ds then ok := false
      | Dfs.Cross ->
        if anc_sd || not (t.Dfs.pre.(d) < t.Dfs.pre.(s)) then ok := false);
      ())
    ;
  !ok

(* --- reach --- *)

(* Acyclic: every component a singleton and no self-loop. *)
let acyclic g =
  let self = ref false in
  D.iter_edges g (fun _ s d -> if s = d then self := true);
  (not !self) && (Scc.compute g).Scc.n_comps = D.n_nodes g

let test_reach () =
  let g = mk 5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check (list int)) "from 0" [ 0; 1; 2 ] (Bitvec.to_list (Graphs.Reach.from g 0));
  Alcotest.(check bool) "0 to 2" true (Graphs.Reach.reaches g ~src:0 ~dst:2);
  Alcotest.(check bool) "0 to 4" false (Graphs.Reach.reaches g ~src:0 ~dst:4)

let test_deep_chain_no_overflow () =
  (* The iterative implementations must survive a 200k-node path. *)
  let n = 200_000 in
  let g = Graphs.Gen.chain n in
  let r = Scc.compute g in
  Alcotest.(check int) "all singletons" n r.Scc.n_comps;
  let t = Dfs.run g in
  Alcotest.(check int) "last preorder" (n - 1) t.Dfs.pre.(n - 1)

let test_misc_api () =
  let g = mk 4 [ (0, 1); (1, 2); (2, 1); (0, 3) ] in
  (* fold over out-edges *)
  let deg0 = D.fold_out_edges g 0 ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "fold counts out-edges" 2 deg0;
  (* one entry per SCC, a member of it *)
  let r = Scc.compute g in
  Alcotest.(check int) "one entry per comp" r.Scc.n_comps (Array.length r.Scc.entry);
  Array.iteri
    (fun c v -> Alcotest.(check int) "entry belongs to its comp" c r.Scc.comp.(v))
    r.Scc.entry

let test_fixed_generators rng =
  let cyc = Graphs.Gen.cycle 5 in
  let r = Scc.compute cyc in
  Alcotest.(check int) "cycle is one SCC" 1 r.Scc.n_comps;
  let k = Graphs.Gen.complete 5 in
  Alcotest.(check int) "complete edges" 20 (D.n_edges k);
  Alcotest.(check int) "complete is one SCC" 1 (Scc.compute k).Scc.n_comps;
  let tr = Graphs.Gen.tree rng ~nodes:50 ~arity:3 in
  Alcotest.(check int) "tree edges" 49 (D.n_edges tr);
  Alcotest.(check bool) "tree acyclic" true (acyclic tr);
  Alcotest.(check int) "tree reaches all from root" 50
    (Bitvec.cardinal (Graphs.Reach.from tr 0));
  let cl = Graphs.Gen.clustered rng ~clusters:4 ~cluster_size:5 ~extra:6 in
  let rc = Scc.compute cl in
  Alcotest.(check int) "clustered: one SCC per cluster" 4 rc.Scc.n_comps;
  Alcotest.(check bool) "condensation laws" true (check_condensation cl rc)

let prop_generators_shape params =
  let n, m, seed = params in
  let rng = Random.State.make [| seed |] in
  let dag = if n >= 2 then Graphs.Gen.random_dag rng ~nodes:n ~edges:m else Graphs.Gen.chain 1 in
  acyclic dag

let () =
  Helpers.run "graphs"
    [
      ( "digraph",
        [
          Alcotest.test_case "builder and CSR" `Quick test_builder;
          Alcotest.test_case "edge endpoints and reverse" `Quick test_edge_endpoints;
          Alcotest.test_case "bad edge raises" `Quick test_bad_edge;
        ] );
      ( "scc",
        [
          Alcotest.test_case "simple cycle plus tail" `Quick test_scc_simple;
          Alcotest.test_case "self loop vs isolated" `Quick test_scc_self_loop;
          Alcotest.test_case "condensation" `Quick test_condense;
          Helpers.qtest "matches mutual-reachability oracle" arb_graph
            prop_scc_matches_oracle;
          Helpers.qtest "components in reverse topo order" arb_graph
            prop_scc_reverse_topo;
          Helpers.qtest "condensation acyclic" arb_graph prop_condensation_acyclic;
          Helpers.qtest "entry is first member in DFS preorder" arb_graph
            prop_entry_first_in_preorder;
        ] );
      ( "dfs",
        [
          Alcotest.test_case "edge classification" `Quick test_dfs_classification;
          Helpers.qtest "classification laws" arb_graph prop_dfs_edge_kinds;
        ] );
      ( "topo-reach",
        [
          Alcotest.test_case "reachability" `Quick test_reach;
          Alcotest.test_case "200k-node chain, iterative" `Slow
            test_deep_chain_no_overflow;
          Helpers.seeded_case "fixed generator shapes" `Quick test_fixed_generators;
          Alcotest.test_case "misc graph API" `Quick test_misc_api;
          Helpers.qtest "random_dag is acyclic" arb_graph prop_generators_shape;
        ] );
    ]
