(* Cross-cutting property tests: chain inclusions of the decomposition,
   agreement between independent implementations at larger sizes, and
   soundness bounds. *)

let prop_chain_inclusions seed =
  (* IMOD ⊆ IMOD+ ⊆ GMOD for every procedure. *)
  let prog = Helpers.nested_of_seed seed in
  let t = Core.Analyze.run prog in
  Array.length t.Core.Analyze.imod = Array.length t.Core.Analyze.gmod
  && Array.for_all2 Bitvec.subset t.Core.Analyze.imod t.Core.Analyze.imod_plus
  && Array.for_all2 Bitvec.subset t.Core.Analyze.imod_plus t.Core.Analyze.gmod

let prop_gmod_upper_bound seed =
  (* GMOD(p) ⊆ union of IMOD+ over procedures reachable from p. *)
  let prog = Helpers.flat_of_seed seed in
  let t = Core.Analyze.run prog in
  let g = t.Core.Analyze.call.Callgraph.Call.graph in
  let ok = ref true in
  for pid = 0 to Ir.Prog.n_procs prog - 1 do
    let bound = Ir.Info.fresh t.Core.Analyze.info in
    Bitvec.iter
      (fun q -> ignore (Bitvec.union_into ~src:t.Core.Analyze.imod_plus.(q) ~dst:bound))
      (Graphs.Reach.from g pid);
    if not (Bitvec.subset t.Core.Analyze.gmod.(pid) bound) then ok := false
  done;
  !ok

let prop_unreachable_isolated seed =
  (* A procedure with no path to another cannot see its effects:
     GMOD(p) over globals ⊆ globals modified in reachable procs. *)
  let prog = Helpers.flat_of_seed seed in
  let t = Core.Analyze.run prog in
  let g = t.Core.Analyze.call.Callgraph.Call.graph in
  let global = Ir.Info.global t.Core.Analyze.info in
  let ok = ref true in
  for pid = 0 to Ir.Prog.n_procs prog - 1 do
    let reachable = Graphs.Reach.from g pid in
    let bound = Ir.Info.fresh t.Core.Analyze.info in
    Bitvec.iter
      (fun q ->
        let contrib = Bitvec.inter t.Core.Analyze.imod_plus.(q) global in
        ignore (Bitvec.union_into ~src:contrib ~dst:bound))
      reachable;
    let gmod_globals = Bitvec.inter t.Core.Analyze.gmod.(pid) global in
    if not (Bitvec.subset gmod_globals bound) then ok := false
  done;
  !ok

let big_trio seed =
  (* The central equivalence at a size where bugs in the linear-time
     bookkeeping would surface. *)
  let prog = Helpers.flat_of_seed ~n:400 seed in
  let p = Helpers.pipeline prog in
  let fig2 = Core.Gmod.solve p.Helpers.info p.Helpers.call ~imod_plus:p.Helpers.imod_plus in
  let iter =
    Baseline.Iterative.gmod p.Helpers.info p.Helpers.call
      ~imod_plus:p.Helpers.imod_plus
  in
  let reach =
    Baseline.Reach.gmod p.Helpers.info p.Helpers.call ~imod_plus:p.Helpers.imod_plus
  in
  Helpers.gmod_arrays_equal fig2 iter && Helpers.gmod_arrays_equal fig2 reach

let big_nested_trio seed =
  let prog = Helpers.nested_of_seed ~n:300 ~depth:5 seed in
  let p = Helpers.pipeline prog in
  let one_pass =
    Core.Gmod_nested.solve p.Helpers.info p.Helpers.call ~imod_plus:p.Helpers.imod_plus
  in
  let by_levels =
    Core.Gmod_nested.solve_by_levels p.Helpers.info p.Helpers.call
      ~imod_plus:p.Helpers.imod_plus
  in
  let iter =
    Baseline.Iterative.gmod p.Helpers.info p.Helpers.call
      ~imod_plus:p.Helpers.imod_plus
  in
  Helpers.gmod_arrays_equal one_pass iter && Helpers.gmod_arrays_equal by_levels iter

let prop_gmod_pass_count_bounded seed =
  (* The naive solver sweeps edges in site order, so its pass count is
     bounded by the longest information path plus the detection sweep —
     at most N + 1; equation (4) being rapid, it is usually tiny, but
     an unluckily oriented chain can need O(N). *)
  let prog = Helpers.flat_of_seed seed in
  let p = Helpers.pipeline prog in
  let _, passes =
    Baseline.Iterative.gmod_passes p.Helpers.info p.Helpers.call
      ~imod_plus:p.Helpers.imod_plus
  in
  passes <= Ir.Prog.n_procs prog + 1

let () =
  Helpers.run "props"
    [
      ( "decomposition",
        [
          Helpers.qtest "IMOD ⊆ IMOD+ ⊆ GMOD" Helpers.arb_nested_prog
            prop_chain_inclusions;
          Helpers.qtest "GMOD bounded by reachable IMOD+" Helpers.arb_flat_prog
            prop_gmod_upper_bound;
          Helpers.qtest "global effects come from reachable procs"
            Helpers.arb_flat_prog prop_unreachable_isolated;
        ] );
      ( "stress",
        [
          Helpers.qtest ~count:15 "400-proc flat trio" Helpers.arb_flat_prog big_trio;
          Helpers.qtest ~count:15 "300-proc nested trio" Helpers.arb_nested_prog
            big_nested_trio;
          Helpers.qtest ~count:50 "iterative pass count bounded" Helpers.arb_flat_prog
            prop_gmod_pass_count_bounded;
        ] );
    ]
