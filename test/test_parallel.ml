(* The parallel engine: the Par.Pool/Par.Wavefront machinery itself,
   and the headline determinism contract — [Analyze.run ~jobs:k] is
   bit-identical to [~jobs:1] for every k, results and
   [bitvec.vector_ops]/[word_ops] step counts both (docs/parallel.md).

   The worker-count property holds on any host: correctness of the
   wavefront schedule does not depend on how many cores actually back
   the domains. *)

open Helpers
module A = Core.Analyze
module Pool = Par.Pool
module Wavefront = Par.Wavefront
module Scc = Graphs.Scc

(* One shared 4-way pool for the whole binary: pools are reusable, and
   spawning domains per qcheck case would dominate the run. *)
let pool4 = lazy (Pool.create ~jobs:4)

let () =
  at_exit (fun () -> if Lazy.is_val pool4 then Pool.shutdown (Lazy.force pool4))

(* --- Pool --- *)

let test_pool_runs_all () =
  let pool = Lazy.force pool4 in
  let n = 100 in
  let hits = Array.make n 0 in
  let slots = Array.make n (-1) in
  Pool.run pool
    (Array.init n (fun i slot ->
         hits.(i) <- hits.(i) + 1;
         slots.(i) <- slot));
  Array.iteri (fun i h -> check_int (Printf.sprintf "task %d ran once" i) 1 h) hits;
  Array.iter
    (fun s -> check_bool "slot in range" true (s >= 0 && s < Pool.jobs pool))
    slots;
  (* Batches are reusable: a second run on the same pool. *)
  let sum = Atomic.make 0 in
  Pool.run pool
    (Array.init 37 (fun i _slot -> ignore (Atomic.fetch_and_add sum (i + 1))));
  check_int "second batch total" (37 * 38 / 2) (Atomic.get sum)

let test_pool_empty_and_errors () =
  let pool = Lazy.force pool4 in
  Pool.run pool [||];
  (* One failing task: the batch drains and the exception resurfaces. *)
  let ran = Atomic.make 0 in
  (try
     Pool.run pool
       (Array.init 16 (fun i _slot ->
            ignore (Atomic.fetch_and_add ran 1);
            if i = 7 then failwith "boom"));
     Alcotest.fail "expected the task exception to propagate"
   with Failure m -> check_bool "task exception" true (m = "boom"));
  check_int "whole batch still drained" 16 (Atomic.get ran);
  (* And the pool survives: it is not poisoned by a failed batch. *)
  Pool.run pool (Array.init 4 (fun _ _ -> ()))

let test_effective_jobs () =
  check_int "1 is 1" 1 (Pool.effective_jobs 1);
  check_int "4 is 4" 4 (Pool.effective_jobs 4);
  check_bool "0 is recommended (>= 1)" true (Pool.effective_jobs 0 >= 1);
  check_int "negative clamps to 1" 1 (Pool.effective_jobs (-3));
  Pool.with_pool ~jobs:1 (fun p -> check_bool "jobs=1 has no pool" true (p = None));
  Pool.with_pool ~jobs:2 (fun p ->
      match p with
      | None -> Alcotest.fail "jobs=2 should build a pool"
      | Some p -> check_int "pool width" 2 (Pool.jobs p))

(* --- Wavefront --- *)

let test_leveling () =
  (* 4 <- {2,3} <- ... a diamond condensation: 0 and 1 are sinks,
     2 and 3 depend on them, 4 on both of those. *)
  let l = Scc.of_comp_succs [| [||]; [||]; [| 0; 1 |]; [| 1 |]; [| 2; 3 |] |] in
  check_int "n_levels" 3 l.Scc.n_levels;
  check_int "max_width" 2 l.Scc.max_width;
  Alcotest.(check (list int)) "level 0" [ 0; 1 ] (Array.to_list l.Scc.by_level.(0));
  Alcotest.(check (list int)) "level 1" [ 2; 3 ] (Array.to_list l.Scc.by_level.(1));
  Alcotest.(check (list int)) "level 2" [ 4 ] (Array.to_list l.Scc.by_level.(2))

let test_schedule_diamond () =
  (* main(0) -> a(1), b(2); a,b -> c(3); c is the only sink. *)
  let g = Graphs.Digraph.of_edges ~nodes:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let s = Scc.compute ~first_root:0 g in
  check_int "4 singleton components" 4 s.Scc.n_comps;
  (* Reverse topological: c first, main last. *)
  check_int "comp of c is 0" 0 s.Scc.comp.(3);
  check_int "comp of main is largest" 3 s.Scc.comp.(0);
  Array.iteri
    (fun c v -> check_int (Printf.sprintf "entry of comp %d" c) c s.Scc.comp.(v))
    s.Scc.entry;
  check_int "3 levels" 3 s.Scc.levels.Scc.n_levels;
  check_int "a,b share a level" 2 s.Scc.levels.Scc.max_width;
  (* Inline and pooled plan runs both visit every component once, and
     never a component before all of its successors. *)
  let succs_of = [| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |] in
  Array.iteri
    (fun c cs ->
      Alcotest.(check (list int)) "component successors" succs_of.(c)
        (List.sort compare (Array.to_list cs)))
    s.Scc.succs;
  let plan = Wavefront.plan s.Scc.levels ~jobs:4 ~cost:(fun _ -> 1) in
  List.iter
    (fun pool ->
      let done_ = Array.make s.Scc.n_comps false in
      let mu = Mutex.create () in
      Wavefront.run_plan pool plan ~f:(fun ~slot:_ ~comp ->
          Mutex.lock mu;
          check_bool "not evaluated twice" false done_.(comp);
          List.iter
            (fun cd -> check_bool "successors first" true done_.(cd))
            succs_of.(comp);
          done_.(comp) <- true;
          Mutex.unlock mu);
      Array.iter (fun b -> check_bool "all components evaluated" true b) done_)
    [ None; Some (Lazy.force pool4) ]

let test_plan_fusion_and_chain () =
  (* A pure chain condensation: every level is a singleton, so the plan
     must fuse everything into one Seq stage, report chain = true, and
     never touch the pool. *)
  let l = Scc.of_comp_succs [| [||]; [| 0 |]; [| 1 |]; [| 2 |] |] in
  let p = Wavefront.plan l ~jobs:4 ~cost:(fun _ -> 1) in
  check_bool "chain" true p.Wavefront.chain;
  check_int "all levels fused" 4 p.Wavefront.fused_levels;
  check_int "no parallel batches" 0 p.Wavefront.n_batches;
  check_int "one stage" 1 (Array.length p.Wavefront.stages);
  (match p.Wavefront.stages.(0) with
  | Wavefront.Seq comps ->
    Alcotest.(check (list int)) "level order" [ 0; 1; 2; 3 ] (Array.to_list comps)
  | Wavefront.Par _ -> Alcotest.fail "expected Seq stage");
  (* run_plan on a chain must not require the pool at all: poison the
     pool argument with None and also check visiting order inline. *)
  let visited = ref [] in
  Wavefront.run_plan None p ~f:(fun ~slot ~comp ->
      check_int "inline slot" 0 slot;
      visited := comp :: !visited);
  Alcotest.(check (list int)) "visit order" [ 0; 1; 2; 3 ] (List.rev !visited)

let test_plan_batching () =
  (* A wide level with skewed costs: batches must partition the level,
     respect the 2*jobs cap, and balance deterministically (LPT:
     heaviest first into the lightest batch). *)
  let width = 10 in
  let succs = Array.make (width + 1) [||] in
  (* component [width] depends on all of level 0 — gives 2 levels *)
  succs.(width) <- Array.init width Fun.id;
  let l = Scc.of_comp_succs succs in
  let cost c = if c = 0 then 100 else 1 in
  let p = Wavefront.plan l ~jobs:2 ~cost in
  check_bool "not a chain" false p.Wavefront.chain;
  check_int "singleton top level fused" 1 p.Wavefront.fused_levels;
  (match p.Wavefront.stages.(0) with
  | Wavefront.Par batches ->
    check_bool "at most 2*jobs batches" true (Array.length batches <= 4);
    let seen = Array.make width false in
    Array.iter
      (fun b ->
        Array.iter
          (fun c ->
            check_bool "no component twice" false seen.(c);
            seen.(c) <- true)
          b.Wavefront.comps)
      batches;
    Array.iter (fun b -> check_bool "batch covered" true b) seen;
    (* The heavy component dominates: its batch should contain it alone
       (total other cost 9 < 100 never balances up to it). *)
    let heavy =
      Array.to_list batches
      |> List.find (fun b -> Array.exists (fun c -> c = 0) b.Wavefront.comps)
    in
    check_int "heavy component isolated" 1 (Array.length heavy.Wavefront.comps)
  | Wavefront.Seq _ -> Alcotest.fail "expected Par stage");
  (* Determinism: same inputs, same plan. *)
  let p' = Wavefront.plan l ~jobs:2 ~cost in
  check_bool "plans identical" true (p = p')

let test_schedule_cycle_entry () =
  (* 0 -> 1 <-> 2 <- 3, searched from 0: the SCC {1,2} must record
     entry 1 — where a sequential DFS from 0 first touches it. *)
  let g = Graphs.Digraph.of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 1); (3, 2) ] in
  let s = Scc.compute ~first_root:0 g in
  check_int "three components" 3 s.Scc.n_comps;
  let c12 = s.Scc.comp.(1) in
  check_int "1 and 2 share a component" c12 s.Scc.comp.(2);
  check_int "entered at 1" 1 s.Scc.entry.(c12);
  (* Rooted at 3 instead, the search enters the cycle at 2. *)
  let s3 = Scc.compute ~first_root:3 g in
  check_int "entered at 2 from 3" 2 s3.Scc.entry.(s3.Scc.comp.(1))

(* The propagation driver on main(0) -> 1 -> 2 -> 3 plus main -> 4:
   a seed at the sink walks its cone {3, 2, 1, main}, never 4; a
   component runs only if it is the seed or a successor moved, so once
   1 answers "unchanged", main is skipped. *)
let test_resolve_prunes () =
  let g =
    Graphs.Digraph.of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (0, 4) ]
  in
  let s = Scc.compute ~first_root:0 g in
  let node_of c = List.hd s.Scc.members.(c) in
  let ran = ref [] in
  let changed =
    Wavefront.resolve None s
      ~seeds:(Wavefront.Comps [ s.Scc.comp.(3) ])
      ~cost:(fun _ -> 1)
      ~f:(fun ~slot:_ ~comp ->
        ran := node_of comp :: !ran;
        node_of comp <> 1)
  in
  Alcotest.(check (list int)) "ran 3, 2, 1" [ 3; 2; 1 ] (List.rev !ran);
  Alcotest.(check (list int)) "changed 3, 2" [ 3; 2 ] (List.map node_of changed);
  (* A 20000-deep chain: the cone walk does not recurse. *)
  let n = 20000 in
  let s = Scc.compute (Graphs.Digraph.of_edges ~nodes:n (List.init (n - 1) (fun i -> (i, i + 1)))) in
  let changed =
    Wavefront.resolve None s
      ~seeds:(Wavefront.Comps [ s.Scc.comp.(n - 1) ])
      ~cost:(fun _ -> 1)
      ~f:(fun ~slot:_ ~comp:_ -> true)
  in
  check_int "whole chain re-solved" n (List.length changed)

(* --- determinism: jobs=4 vs jobs=1, values and step counts --- *)

let bool_arrays_equal = Array.for_all2 Bool.equal

let check_same_analysis msg (seq : A.t) (par : A.t) =
  let ok name b = if not b then Alcotest.failf "%s: %s differs" msg name in
  ok "RMOD" (bool_arrays_equal seq.A.rmod.Core.Rmod.rmod par.A.rmod.Core.Rmod.rmod);
  ok "RUSE" (bool_arrays_equal seq.A.ruse.Core.Rmod.rmod par.A.ruse.Core.Rmod.rmod);
  ok "RMOD steps" (seq.A.rmod.Core.Rmod.steps = par.A.rmod.Core.Rmod.steps);
  ok "IMOD" (gmod_arrays_equal seq.A.imod par.A.imod);
  ok "IUSE" (gmod_arrays_equal seq.A.iuse par.A.iuse);
  ok "IMOD+" (gmod_arrays_equal seq.A.imod_plus par.A.imod_plus);
  ok "IUSE+" (gmod_arrays_equal seq.A.iuse_plus par.A.iuse_plus);
  ok "GMOD" (gmod_arrays_equal seq.A.gmod par.A.gmod);
  ok "GUSE" (gmod_arrays_equal seq.A.guse par.A.guse);
  for sid = 0 to Ir.Prog.n_sites seq.A.prog - 1 do
    ok
      (Printf.sprintf "MOD(s%d)" sid)
      (Bitvec.equal (A.mod_of_site seq sid) (A.mod_of_site par sid));
    ok
      (Printf.sprintf "USE(s%d)" sid)
      (Bitvec.equal (A.use_of_site seq sid) (A.use_of_site par sid))
  done

let vector_ops = lazy (Option.get (Obs.Metric.find "bitvec.vector_ops"))
let word_ops = lazy (Option.get (Obs.Metric.find "bitvec.word_ops"))

(* Run [f] and report its (vector_ops, word_ops) interval. *)
let counted f =
  let snap = Obs.Metric.snapshot () in
  let r = f () in
  ( r,
    Obs.Metric.value_since ~since:snap (Lazy.force vector_ops),
    Obs.Metric.value_since ~since:snap (Lazy.force word_ops) )

let prop_jobs_deterministic of_seed seed =
  let prog = of_seed seed in
  let seq, sv, sw = counted (fun () -> A.run prog) in
  let par, pv, pw =
    counted (fun () -> A.run ~pool:(Lazy.force pool4) prog)
  in
  check_same_analysis (Printf.sprintf "seed %d" seed) seq par;
  check_int "vector_ops identical" sv pv;
  check_int "word_ops identical" sw pw;
  true

(* The qchecks stay small; this directed case is large enough that a
   slot's scratch vector is reused across GMOD components of different
   sizes, so a word-op charge that depended on what the scratch held
   before would differ between job counts. *)
let check_directed name prog =
  let seq, sv, sw = counted (fun () -> A.run prog) in
  let par, pv, pw =
    counted (fun () -> A.run ~pool:(Lazy.force pool4) prog)
  in
  check_same_analysis name seq par;
  check_int "vector_ops identical" sv pv;
  check_int "word_ops identical" sw pw

let test_dag_1024_deterministic () =
  check_directed "dag_style n=1024" (Workload.Families.dag_style ~seed:7 ~n:1024)

(* The multi-level findgmod runs through the same wavefront: on a
   nested program whose condensation has wide levels, the pooled run
   must match the sequential one, op counts included. *)
let test_nested_256_deterministic () =
  let prog = Workload.Families.pascal_style ~seed:7 ~n:256 ~depth:4 in
  let call = Callgraph.Call.build prog in
  let plan =
    Par.Wavefront.plan call.Callgraph.Call.scc.Graphs.Scc.levels ~jobs:4
      ~cost:(fun _ -> 1)
  in
  check_bool "nested" true (Ir.Prog.max_level prog > 1);
  check_bool "plan has parallel stages" false plan.Par.Wavefront.chain;
  check_directed "pascal_style n=256 d4" prog

(* The re-solves ride the same driver: with [?pool] they match the
   inline run bit for bit, step and round counts and op counts included,
   and equal a batch solve on the perturbed inputs.  Every third
   procedure loses its IMOD seed and its GMOD cap. *)
let test_resolve_pool_identical () =
  let prog = Workload.Families.dag_style ~seed:7 ~n:256 in
  let a = A.run prog in
  let victims = List.filter (fun q -> q mod 3 = 0) (List.init (Ir.Prog.n_procs prog) Fun.id) in
  let cleared family =
    Array.mapi
      (fun q s -> if q mod 3 = 0 then Bitvec.create (Bitvec.length s) else s)
      family
  in
  let imod = cleared a.A.imod and gmod = cleared a.A.gmod in
  let run pool =
    counted (fun () ->
        let r, nodes = Core.Rmod.resolve ?pool a.A.rmod ~imod ~changed_procs:victims in
        let m =
          Core.Mustmod.resolve ?pool a.A.mustmod a.A.info ~alias:a.A.alias ~gmod
            ~changed_procs:victims
        in
        (r, nodes, m))
  in
  let (r1, n1, m1), v1, w1 = run None in
  let (r4, n4, m4), v4, w4 = run (Some (Lazy.force pool4)) in
  check_bool "RMOD" true (bool_arrays_equal r1.Core.Rmod.rmod r4.Core.Rmod.rmod);
  check_int "RMOD steps" r1.Core.Rmod.steps r4.Core.Rmod.steps;
  Alcotest.(check (list int)) "changed nodes" (List.sort compare n1) (List.sort compare n4);
  check_bool "MUSTMOD" true
    (gmod_arrays_equal m1.Core.Mustmod.mustmod m4.Core.Mustmod.mustmod);
  check_int "MUSTMOD rounds" m1.Core.Mustmod.rounds m4.Core.Mustmod.rounds;
  check_int "vector_ops identical" v1 v4;
  check_int "word_ops identical" w1 w4;
  check_bool "some seed flipped" true (n1 <> []);
  check_bool "RMOD = batch" true
    (bool_arrays_equal r1.Core.Rmod.rmod
       (Core.Rmod.solve a.A.binding ~imod).Core.Rmod.rmod);
  check_bool "MUSTMOD = batch" true
    (gmod_arrays_equal m1.Core.Mustmod.mustmod
       (Core.Mustmod.solve a.A.info a.A.call ~alias:a.A.alias ~gmod).Core.Mustmod.mustmod)

let prop_incremental_deterministic seed =
  let prog = flat_of_seed ~n:24 seed in
  let mk_script () =
    (* Same rand stream both times, so both engines replay one script. *)
    let rand = Random.State.make [| seed; 0xed17 |] in
    Workload.Edits.gen ~rand ~steps:6 prog
  in
  let seq = Incremental.Engine.create prog in
  let par = Incremental.Engine.create ~pool:(Lazy.force pool4) prog in
  check_same_analysis "initial"
    (Incremental.Engine.analysis seq)
    (Incremental.Engine.analysis par);
  List.iteri
    (fun i ((edit, _expected), (edit', _)) ->
      assert (edit = edit');
      let (_ : Incremental.Engine.outcome) = Incremental.Engine.apply seq edit in
      let (_ : Incremental.Engine.outcome) = Incremental.Engine.apply par edit in
      check_same_analysis
        (Printf.sprintf "seed %d edit %d" seed i)
        (Incremental.Engine.analysis seq)
        (Incremental.Engine.analysis par))
    (List.combine (mk_script ()) (mk_script ()));
  true

let () =
  run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "runs every task once" `Quick test_pool_runs_all;
          Alcotest.test_case "empty batches and errors" `Quick
            test_pool_empty_and_errors;
          Alcotest.test_case "effective_jobs / with_pool" `Quick
            test_effective_jobs;
        ] );
      ( "wavefront",
        [
          Alcotest.test_case "leveling of a diamond" `Quick test_leveling;
          Alcotest.test_case "schedule: diamond" `Quick test_schedule_diamond;
          Alcotest.test_case "plan: chain fusion" `Quick
            test_plan_fusion_and_chain;
          Alcotest.test_case "plan: cost batching" `Quick test_plan_batching;
          Alcotest.test_case "schedule: cycle entry" `Quick
            test_schedule_cycle_entry;
          Alcotest.test_case "resolve: pruned cone" `Quick test_resolve_prunes;
        ] );
      ( "determinism",
        [
          qtest ~count:160 "analyze jobs=4 = jobs=1 (flat)" arb_flat_prog
            (prop_jobs_deterministic (flat_of_seed ~n:40));
          qtest ~count:60 "analyze jobs=4 = jobs=1 (dag)" arb_flat_prog
            (prop_jobs_deterministic (fun seed ->
                 Workload.Families.dag_style ~seed ~n:40));
          qtest ~count:40 "analyze jobs=4 = jobs=1 (nested)" arb_nested_prog
            (prop_jobs_deterministic (nested_of_seed ~n:24 ~depth:3));
          qtest ~count:30 "incremental engine jobs=4 = jobs=1" arb_flat_prog
            prop_incremental_deterministic;
          Alcotest.test_case "dag n=1024 jobs=4 = jobs=1"
            `Quick test_dag_1024_deterministic;
          Alcotest.test_case "nested n=256 jobs=4 = jobs=1"
            `Quick test_nested_256_deterministic;
          Alcotest.test_case "resolves jobs=4 = jobs=1" `Quick
            test_resolve_pool_identical;
        ] );
    ]
