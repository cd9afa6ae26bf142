(* RMOD (Figure 1) tests: known answers on the fixed families, the
   paper's SCC-constancy observation, and equivalence with the two
   independent baseline solvers on random programs. *)

let rmod_names pipeline pid =
  List.map
    (fun vid -> (Ir.Prog.var pipeline.Helpers.prog vid).Ir.Prog.vname)
    (Core.Rmod.rmod_of_proc pipeline.Helpers.rmod pid)

let test_ref_chain () =
  let prog = Workload.Families.ref_chain 12 in
  let p = Helpers.pipeline prog in
  (* Every procedure's x is modified: the write in p12 propagates back
     through the whole β path. *)
  for i = 1 to 12 do
    Alcotest.(check (list string))
      (Printf.sprintf "RMOD(p%d)" i)
      [ "x" ]
      (rmod_names p (Helpers.proc_id prog (Printf.sprintf "p%d" i)))
  done

let test_clean_chain () =
  let prog = Workload.Families.clean_chain 8 in
  let p = Helpers.pipeline prog in
  for i = 1 to 8 do
    Alcotest.(check (list string))
      (Printf.sprintf "RMOD(p%d) empty" i)
      []
      (rmod_names p (Helpers.proc_id prog (Printf.sprintf "p%d" i)))
  done

let test_ref_cycle () =
  let prog = Workload.Families.ref_cycle 6 in
  let p = Helpers.pipeline prog in
  for i = 1 to 6 do
    Alcotest.(check (list string))
      (Printf.sprintf "RMOD(p%d)" i)
      [ "x" ]
      (rmod_names p (Helpers.proc_id prog (Printf.sprintf "p%d" i)))
  done

let test_mutual_pair () =
  let prog = Workload.Families.mutual_pair () in
  let p = Helpers.pipeline prog in
  Alcotest.(check (list string)) "a" [ "x" ] (rmod_names p (Helpers.proc_id prog "a"));
  Alcotest.(check (list string)) "b" [ "y" ] (rmod_names p (Helpers.proc_id prog "b"))

let test_value_param_blocks_propagation () =
  (* A by-value hop breaks the modification chain. *)
  let prog =
    Helpers.compile
      {|program m;
var g : int;
procedure sink(var s : int);
begin
  s := 1;
end;
procedure hop(h : int);
begin
  write h;
end;
procedure src(var x : int);
begin
  call hop(x);
end;
begin
  call src(g);
  call sink(g);
end.|}
  in
  let p = Helpers.pipeline prog in
  Alcotest.(check (list string)) "sink" [ "s" ]
    (rmod_names p (Helpers.proc_id prog "sink"));
  Alcotest.(check (list string)) "src unmodified" []
    (rmod_names p (Helpers.proc_id prog "src"))

let test_element_binding_conservative () =
  (* Passing a[i] by ref: modifying the formal modifies the array. *)
  let prog =
    Helpers.compile
      {|program m;
var g : array[5] of int;
procedure bump(var e : int);
begin
  e := e + 1;
end;
procedure owner(var a : array[5] of int; i : int);
begin
  call bump(a[i]);
end;
begin
  call owner(g, 2);
end.|}
  in
  let p = Helpers.pipeline prog in
  Alcotest.(check (list string)) "owner's array modified" [ "a" ]
    (rmod_names p (Helpers.proc_id prog "owner"))

let test_steps_linear () =
  (* O(Nβ + Eβ): steps on a chain of n is within a small constant. *)
  let prog = Workload.Families.ref_chain 400 in
  let p = Helpers.pipeline prog in
  let b = p.Helpers.binding in
  let size = Callgraph.Binding.n_nodes b + Callgraph.Binding.n_edges b in
  Alcotest.(check bool) "steps <= 4*(Nb+Eb)" true
    (p.Helpers.rmod.Core.Rmod.steps <= 4 * size)

let test_steps_metric_linear () =
  (* The same O(Nβ + Eβ) bound read off the Obs registry: the
     [rmod.steps] counter delta across a solve equals the result's
     step field, so external observers (sidefx profile, benchmarks)
     see the paper's cost unit without touching solver internals. *)
  let prog = Workload.Families.fortran_style ~seed:3 ~n:300 in
  let info = Ir.Info.make prog in
  let binding = Callgraph.Binding.build info in
  let imod = Frontend.Local.imod info in
  let snap = Obs.Metric.snapshot () in
  let rmod = Core.Rmod.solve binding ~imod in
  let counted =
    match Obs.Metric.find "rmod.steps" with
    | Some h -> Obs.Metric.value_since ~since:snap h
    | None -> Alcotest.fail "rmod.steps not registered"
  in
  Helpers.check_int "registry delta = result.steps" rmod.Core.Rmod.steps counted;
  let size = Callgraph.Binding.n_nodes binding + Callgraph.Binding.n_edges binding in
  Alcotest.(check bool)
    (Printf.sprintf "counted steps %d <= 4*(Nb+Eb) = %d" counted (4 * size))
    true
    (counted <= 4 * size)

(* Re-solves run Figure 1's transfer through the one propagation
   driver.  A reseed that flips no bit runs no component: the steps are
   the reseed reads alone, one per β node of the listed procedures. *)
let test_resolve_no_flip () =
  let prog = Workload.Families.ref_chain 64 in
  let p = Helpers.pipeline prog in
  let steps = Option.get (Obs.Metric.find "rmod.steps") in
  let snap = Obs.Metric.snapshot () in
  let r, changed =
    Core.Rmod.resolve p.Helpers.rmod ~imod:p.Helpers.imod
      ~changed_procs:(List.init (Ir.Prog.n_procs prog) Fun.id)
  in
  let counted = Obs.Metric.value_since ~since:snap steps in
  Helpers.check_int "reseed reads only"
    (Callgraph.Binding.n_nodes p.Helpers.binding)
    counted;
  Helpers.check_int "registry delta = result.steps" r.Core.Rmod.steps counted;
  Alcotest.(check (list int)) "no node changed" [] changed;
  Alcotest.(check bool) "RMOD unchanged" true (r.Core.Rmod.rmod = p.Helpers.rmod.Core.Rmod.rmod)

(* Clearing the chain's one seed flips every node: the cone re-solve
   equals a batch solve on the new seeds, its registry delta equals its
   [steps], and both stay within the batch bound. *)
let test_resolve_steps_metric () =
  let prog = Workload.Families.ref_chain 64 in
  let p = Helpers.pipeline prog in
  let b = p.Helpers.binding in
  let last = Helpers.proc_id prog "p64" in
  let imod = Array.copy p.Helpers.imod in
  imod.(last) <- Bitvec.create (Bitvec.length imod.(last));
  let steps = Option.get (Obs.Metric.find "rmod.steps") in
  let snap = Obs.Metric.snapshot () in
  let r, changed = Core.Rmod.resolve p.Helpers.rmod ~imod ~changed_procs:[ last ] in
  let counted = Obs.Metric.value_since ~since:snap steps in
  Helpers.check_int "registry delta = result.steps" r.Core.Rmod.steps counted;
  Helpers.check_int "every node flipped" (Callgraph.Binding.n_nodes b)
    (List.length changed);
  Alcotest.(check bool) "equals batch" true
    (r.Core.Rmod.rmod = (Core.Rmod.solve b ~imod).Core.Rmod.rmod);
  let size = Callgraph.Binding.n_nodes b + Callgraph.Binding.n_edges b in
  Alcotest.(check bool)
    (Printf.sprintf "counted steps %d <= 4*(Nb+Eb) = %d" counted (4 * size))
    true
    (counted <= 4 * size)

(* --- properties --- *)

let prop_equals_iterative seed =
  let prog = Helpers.flat_of_seed seed in
  let p = Helpers.pipeline prog in
  p.Helpers.rmod.Core.Rmod.rmod
  = Baseline.Iterative.rmod p.Helpers.binding ~imod:p.Helpers.imod

let prop_equals_swift seed =
  let prog = Helpers.flat_of_seed seed in
  let p = Helpers.pipeline prog in
  p.Helpers.rmod.Core.Rmod.rmod
  = Baseline.Swift.rmod_as_nodes p.Helpers.binding ~imod:p.Helpers.imod

let prop_equals_iterative_nested seed =
  let prog = Helpers.nested_of_seed seed in
  let p = Helpers.pipeline prog in
  p.Helpers.rmod.Core.Rmod.rmod
  = Baseline.Iterative.rmod p.Helpers.binding ~imod:p.Helpers.imod

let prop_constant_on_sccs seed =
  (* §3.2: the solution is identical at every node of a β SCC. *)
  let prog = Helpers.flat_of_seed seed in
  let p = Helpers.pipeline prog in
  let scc = Graphs.Scc.compute p.Helpers.binding.Callgraph.Binding.graph in
  let value = Array.make scc.Graphs.Scc.n_comps None in
  let ok = ref true in
  Array.iteri
    (fun node r ->
      let c = scc.Graphs.Scc.comp.(node) in
      match value.(c) with
      | None -> value.(c) <- Some r
      | Some r' -> if r <> r' then ok := false)
    p.Helpers.rmod.Core.Rmod.rmod;
  !ok

let prop_seeded_by_imod seed =
  (* RMOD(f) ⊇ IMOD bit of f, and RMOD without any β edges = IMOD. *)
  let prog = Helpers.flat_of_seed seed in
  let p = Helpers.pipeline prog in
  let ok = ref true in
  Array.iteri
    (fun node r ->
      let vid = Callgraph.Binding.var p.Helpers.binding node in
      let owner =
        match (Ir.Prog.var prog vid).Ir.Prog.kind with
        | Ir.Prog.Formal { proc; _ } -> proc
        | _ -> -1
      in
      if Bitvec.get p.Helpers.imod.(owner) vid && not r then ok := false)
    p.Helpers.rmod.Core.Rmod.rmod;
  !ok

let () =
  Helpers.run "rmod"
    [
      ( "families",
        [
          Alcotest.test_case "ref chain propagates" `Quick test_ref_chain;
          Alcotest.test_case "clean chain stays empty" `Quick test_clean_chain;
          Alcotest.test_case "cycle (SCC) propagates" `Quick test_ref_cycle;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_pair;
          Alcotest.test_case "by-value hop blocks" `Quick
            test_value_param_blocks_propagation;
          Alcotest.test_case "element binding is whole-array" `Quick
            test_element_binding_conservative;
          Alcotest.test_case "linear step count" `Quick test_steps_linear;
          Alcotest.test_case "linear step count via registry" `Quick
            test_steps_metric_linear;
          Alcotest.test_case "resolve: no flip runs no component" `Quick
            test_resolve_no_flip;
          Alcotest.test_case "resolve: registry delta = result.steps" `Quick
            test_resolve_steps_metric;
        ] );
      ( "equivalence",
        [
          Helpers.qtest "figure 1 = iterative (flat)" Helpers.arb_flat_prog
            prop_equals_iterative;
          Helpers.qtest "figure 1 = swift bit-vector (flat)" Helpers.arb_flat_prog
            prop_equals_swift;
          Helpers.qtest "figure 1 = iterative (nested)" Helpers.arb_nested_prog
            prop_equals_iterative_nested;
        ] );
      ( "invariants",
        [
          Helpers.qtest "constant on beta SCCs" Helpers.arb_flat_prog
            prop_constant_on_sccs;
          Helpers.qtest "contains the IMOD seed" Helpers.arb_flat_prog
            prop_seeded_by_imod;
        ] );
    ]
