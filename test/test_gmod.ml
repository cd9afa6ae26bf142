(* findgmod (Figure 2) tests: known answers, the correctness lemmas as
   runtime invariants, and equivalence with two independent baselines
   on random flat programs. *)

let gmod_of prog =
  let p = Helpers.pipeline prog in
  (p, Core.Gmod.solve p.Helpers.info p.Helpers.call ~imod_plus:p.Helpers.imod_plus)

let test_global_chain () =
  let prog = Workload.Families.global_chain 10 in
  let _, gmod = gmod_of prog in
  for i = 1 to 10 do
    Helpers.check_var_set prog
      (Printf.sprintf "GMOD(p%d)" i)
      [ "g0" ]
      gmod.(Helpers.proc_id prog (Printf.sprintf "p%d" i))
  done

let test_diamond () =
  let prog = Workload.Families.diamond () in
  let _, gmod = gmod_of prog in
  List.iter
    (fun name ->
      Helpers.check_var_set prog name [ "g0" ] gmod.(Helpers.proc_id prog name))
    [ "a"; "b"; "c" ]

let test_locals_do_not_escape () =
  let prog =
    Helpers.compile
      {|program m;
var g : int;
procedure worker();
var scratch : int;
begin
  scratch := 1;
  g := 2;
end;
procedure boss();
begin
  call worker();
end;
begin
  call boss();
end.|}
  in
  let _, gmod = gmod_of prog in
  Helpers.check_var_set prog "worker keeps its local" [ "g"; "worker.scratch" ]
    gmod.(Helpers.proc_id prog "worker");
  Helpers.check_var_set prog "boss sees only the global" [ "g" ]
    gmod.(Helpers.proc_id prog "boss")

let test_formals_projected_not_inherited () =
  (* A callee's modified formal appears in the caller's GMOD as the
     actual (via IMOD+), not as the callee's formal. *)
  let prog = Workload.Families.mutual_pair () in
  let p, gmod = gmod_of prog in
  ignore p;
  Helpers.check_var_set prog "main" [ "g0" ] gmod.(prog.Ir.Prog.main);
  Helpers.check_var_set prog "a" [ "a.x" ] gmod.(Helpers.proc_id prog "a");
  Helpers.check_var_set prog "b" [ "b.y" ] gmod.(Helpers.proc_id prog "b")

let test_self_recursion () =
  let prog =
    Helpers.compile
      {|program m;
var g : int;
procedure rec(var x : int);
begin
  g := g + 1;
  if g < 10 then
    call rec(x);
  end;
  x := 0;
end;
begin
  call rec(g);
end.|}
  in
  let _, gmod = gmod_of prog in
  Helpers.check_var_set prog "rec" [ "g"; "rec.x" ] gmod.(Helpers.proc_id prog "rec")

let test_vector_ops_linear () =
  (* The paper's Figure-2 bound, read off the Obs registry: findgmod
     performs O(N + E) bit-vector operations.  The constant absorbs the
     per-node seeding/copy-back vectors and the per-edge unions of the
     lowlink walk; 10 is generous (measured ratios sit around 3-4). *)
  List.iter
    (fun n ->
      let prog = Workload.Families.fortran_style ~seed:5 ~n in
      let p = Helpers.pipeline prog in
      let snap = Obs.Metric.snapshot () in
      ignore (Core.Gmod_nested.solve p.Helpers.info p.Helpers.call
                ~imod_plus:p.Helpers.imod_plus);
      let vec_ops =
        match Obs.Metric.find "bitvec.vector_ops" with
        | Some h -> Obs.Metric.value_since ~since:snap h
        | None -> Alcotest.fail "bitvec.vector_ops not registered"
      in
      let size = Ir.Prog.n_procs prog + Ir.Prog.n_sites prog in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: vector ops %d <= 10*(N+E) = %d" n vec_ops (10 * size))
        true
        (vec_ops <= 10 * size))
    [ 50; 200; 800 ]

let test_word_ops_subquadratic () =
  (* With vectors whose form follows their occupied prefix and the
     escape-form solve, *word* ops (not just vector ops) of the
     analysis's GMOD entry point must stay sub-quadratic on the
     scaling family: growth per size doubling well under the ~4x a
     dense full-universe representation gives.  On fortran_fixed
     (constant global population) the expectation is genuine linearity;
     fortran_style scales globals with n, so its summary-set output
     size — and any representation's word count — has a quadratic
     floor, pinned looser. *)
  let word_ops family ~seed ~n =
    let prog = family ~seed ~n in
    let p = Helpers.pipeline prog in
    let snap = Obs.Metric.snapshot () in
    ignore
      (Core.Gmod_nested.solve p.Helpers.info p.Helpers.call
         ~imod_plus:p.Helpers.imod_plus);
    match Obs.Metric.find "bitvec.word_ops" with
    | Some h -> Obs.Metric.value_since ~since:snap h
    | None -> Alcotest.fail "bitvec.word_ops not registered"
  in
  List.iter
    (fun (name, family, ladder, ratio_max) ->
      let counts = List.map (fun n -> (n, word_ops family ~seed:7 ~n)) ladder in
      let rec check_ratios = function
        | (n0, w0) :: ((n1, w1) :: _ as rest) ->
          let r = float_of_int w1 /. float_of_int (max 1 w0) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %d->%d: word ops %d -> %d (%.2fx <= %.2fx)" name
               n0 n1 w0 w1 r ratio_max)
            true (r <= ratio_max);
          check_ratios rest
        | _ -> ()
      in
      check_ratios counts)
    [
      (* 128 is pre-asymptotic for the fixed family: summary sets are
         still filling toward the 64-global ceiling, so the first
         doubling mixes set growth into the size growth. *)
      ("fortran_fixed", Workload.Families.fortran_fixed, [ 256; 512; 1024 ], 2.4);
      ("fortran_style", Workload.Families.fortran_style, [ 128; 256; 512; 1024 ], 2.6);
    ]

let test_hybrid_dense_identity () =
  (* The representation mode is a pure accounting/layout knob: a full
     analysis in legacy dense mode computes bit-identical summaries. *)
  let prog = Workload.Families.fortran_style ~seed:11 ~n:256 in
  let hybrid = Core.Analyze.run prog in
  Bitvec.set_hybrid false;
  let dense =
    Fun.protect ~finally:(fun () -> Bitvec.set_hybrid true) (fun () ->
        Core.Analyze.run prog)
  in
  Alcotest.(check bool) "gmod identical" true
    (Array.for_all2 Bitvec.equal hybrid.Core.Analyze.gmod dense.Core.Analyze.gmod);
  Alcotest.(check bool) "guse identical" true
    (Array.for_all2 Bitvec.equal hybrid.Core.Analyze.guse dense.Core.Analyze.guse);
  Alcotest.(check bool) "imod_plus identical" true
    (Array.for_all2 Bitvec.equal hybrid.Core.Analyze.imod_plus
       dense.Core.Analyze.imod_plus)

(* --- equivalence properties --- *)

let prop_equals_iterative seed =
  let prog = Helpers.flat_of_seed seed in
  let p, gmod = gmod_of prog in
  Helpers.gmod_arrays_equal gmod
    (Baseline.Iterative.gmod p.Helpers.info p.Helpers.call
       ~imod_plus:p.Helpers.imod_plus)

let prop_equals_reachability seed =
  let prog = Helpers.flat_of_seed seed in
  let p, gmod = gmod_of prog in
  Helpers.gmod_arrays_equal gmod
    (Baseline.Reach.gmod p.Helpers.info p.Helpers.call ~imod_plus:p.Helpers.imod_plus)

(* --- the paper's invariants --- *)

let prop_contains_imod_plus seed =
  let prog = Helpers.flat_of_seed seed in
  let p, gmod = gmod_of prog in
  Array.for_all2 (fun seed_set g -> Bitvec.subset seed_set g)
    p.Helpers.imod_plus gmod

let prop_lemma2_on_tree_paths seed =
  (* Lemma 2 / eq (7): along DFS tree edges (p, q) of the call graph,
     GMOD[p] ⊇ GMOD[q] ∖ LOCAL[q].  True of the final sets for any
     edge; we check specifically the DFS tree edges from main. *)
  let prog = Helpers.flat_of_seed seed in
  let p, gmod = gmod_of prog in
  let g = p.Helpers.call.Callgraph.Call.graph in
  let t = Graphs.Dfs.run ~roots:[ prog.Ir.Prog.main ] g in
  let ok = ref true in
  Graphs.Digraph.iter_edges g (fun e src dst ->
      if t.Graphs.Dfs.pre.(src) >= 0 && t.Graphs.Dfs.kind.(e) = Graphs.Dfs.Tree then begin
        let escaped = Bitvec.copy gmod.(dst) in
        ignore
          (Bitvec.inter_into ~src:(Ir.Info.non_local p.Helpers.info dst) ~dst:escaped);
        if not (Bitvec.subset escaped gmod.(src)) then ok := false
      end);
  !ok

let prop_eq8_gmod_nonlocal_is_global seed =
  (* Equation (8): in a flat program the non-local part of GMOD[q] is
     exactly its global part. *)
  let prog = Helpers.flat_of_seed seed in
  let p, gmod = gmod_of prog in
  let ok = ref true in
  Array.iteri
    (fun pid g ->
      let nonlocal = Bitvec.inter g (Ir.Info.non_local p.Helpers.info pid) in
      let global = Bitvec.inter g (Ir.Info.global p.Helpers.info) in
      if not (Bitvec.equal nonlocal global) then ok := false)
    gmod;
  !ok

let prop_global_part_constant_on_sccs seed =
  (* Theorem 1's closing observation: GMOD ∩ GLOBAL is the same for
     every member of a call-graph SCC. *)
  let prog = Helpers.flat_of_seed seed in
  let p, gmod = gmod_of prog in
  let scc = Graphs.Scc.compute p.Helpers.call.Callgraph.Call.graph in
  let value = Array.make scc.Graphs.Scc.n_comps None in
  let ok = ref true in
  Array.iteri
    (fun pid g ->
      let global_part = Bitvec.inter g (Ir.Info.global p.Helpers.info) in
      let c = scc.Graphs.Scc.comp.(pid) in
      match value.(c) with
      | None -> value.(c) <- Some global_part
      | Some v -> if not (Bitvec.equal v global_part) then ok := false)
    gmod;
  !ok

let prop_monotone_under_new_edge seed =
  (* Adding a call site can only grow GMOD sets.  We simulate by
     comparing against the same program whose main gained extra call
     statements (append a call to every top-level procedure). *)
  let prog = Helpers.flat_of_seed seed in
  let _, gmod_before = gmod_of prog in
  (* Rebuild with extra sites from main to every proc. *)
  let main = Ir.Prog.proc prog prog.Ir.Prog.main in
  let n_sites = Ir.Prog.n_sites prog in
  let extra =
    List.filteri (fun i _ -> i > 0) (Array.to_list prog.Ir.Prog.procs)
    |> List.filter (fun (pr : Ir.Prog.proc) -> Array.length pr.Ir.Prog.formals = 0)
  in
  let new_sites =
    List.mapi
      (fun i (pr : Ir.Prog.proc) ->
        {
          Ir.Prog.sid = n_sites + i;
          caller = prog.Ir.Prog.main;
          callee = pr.Ir.Prog.pid;
          args = [||];
        })
      extra
  in
  let prog' =
    {
      prog with
      Ir.Prog.sites = Array.append prog.Ir.Prog.sites (Array.of_list new_sites);
      procs =
        Array.map
          (fun pr ->
            if pr.Ir.Prog.pid = prog.Ir.Prog.main then
              {
                main with
                Ir.Prog.body =
                  main.Ir.Prog.body
                  @ List.map (fun s -> Ir.Stmt.Call s.Ir.Prog.sid) new_sites;
              }
            else pr)
          prog.Ir.Prog.procs;
    }
  in
  (match Ir.Validate.run prog' with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "augmented program invalid");
  let _, gmod_after = gmod_of prog' in
  Array.for_all2 (fun before after -> Bitvec.subset before after) gmod_before
    gmod_after

let () =
  Helpers.run "gmod"
    [
      ( "families",
        [
          Alcotest.test_case "global chain" `Quick test_global_chain;
          Alcotest.test_case "diamond with cross edges" `Quick test_diamond;
          Alcotest.test_case "locals do not escape" `Quick test_locals_do_not_escape;
          Alcotest.test_case "formals stay with their owner" `Quick
            test_formals_projected_not_inherited;
          Alcotest.test_case "self recursion" `Quick test_self_recursion;
          Alcotest.test_case "linear vector-op count via registry" `Quick
            test_vector_ops_linear;
          Alcotest.test_case "sub-quadratic word-op count via registry" `Quick
            test_word_ops_subquadratic;
          Alcotest.test_case "hybrid = dense full analysis" `Quick
            test_hybrid_dense_identity;
        ] );
      ( "equivalence",
        [
          Helpers.qtest "findgmod = iterative eq(4)" Helpers.arb_flat_prog
            prop_equals_iterative;
          Helpers.qtest "findgmod = reachability closed form" Helpers.arb_flat_prog
            prop_equals_reachability;
        ] );
      ( "paper invariants",
        [
          Helpers.qtest "GMOD contains IMOD+" Helpers.arb_flat_prog
            prop_contains_imod_plus;
          Helpers.qtest "lemma 2 on DFS tree edges" Helpers.arb_flat_prog
            prop_lemma2_on_tree_paths;
          Helpers.qtest "eq (8): nonlocal part = global part" Helpers.arb_flat_prog
            prop_eq8_gmod_nonlocal_is_global;
          Helpers.qtest "global part constant on SCCs" Helpers.arb_flat_prog
            prop_global_part_constant_on_sccs;
          Helpers.qtest ~count:40 "monotone under added calls" Helpers.arb_flat_prog
            prop_monotone_under_new_edge;
        ] );
    ]
