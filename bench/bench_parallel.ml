(* The condensation-wavefront solvers on a domain pool vs the same
   solvers run inline at jobs = 1 (docs/parallel.md).

   Workloads: [fortran_style] (the default scaling family, a few
   recursive back edges) and [dag_style] (recursion disabled, the
   Fortran-77 reality: singleton components and wide condensation
   levels — the high-parallelism shape for the wavefront scheduler).

   Every parallel run is also an equality assertion: results must be
   bit-identical to the jobs = 1 run, and the bitvec.vector_ops
   interval must match exactly — parallelism is a pure performance
   knob, never a precision or cost knob.

   Speedup is wall-clock ([Unix.gettimeofday], not [Sys.time]: domain
   time must count once, not per domain).  On a single-core host the
   scheduler cannot win — domains multiplex one CPU and the wavefront
   barriers are pure overhead — so the honest expectation there is
   speedup <= 1.0 with small overhead; the recorded
   [recommended_domain_count] says which regime a given JSON file came
   from.

     dune exec bench/bench_parallel.exe        # writes BENCH_parallel.json

   Sizes stop at 4096 (about 1.2 GiB of heap, the top_heap_words
   column): the heap roughly quadruples per doubling, and n = 8192
   peaked near 4 GiB, more than a small shared host can spare. *)

module A = Core.Analyze
module Pool = Par.Pool

let sizes = [ 1024; 2048; 4096 ]
let par_jobs = [ 2; 4; 8 ]
let reps = 3

let bool_arrays_equal = Array.for_all2 Bool.equal
let vec_arrays_equal = Array.for_all2 Bitvec.equal

let assert_identical ~family ~n ~jobs (seq : A.t) (par : A.t) =
  let ok =
    bool_arrays_equal seq.A.rmod.Core.Rmod.rmod par.A.rmod.Core.Rmod.rmod
    && bool_arrays_equal seq.A.ruse.Core.Rmod.rmod par.A.ruse.Core.Rmod.rmod
    && seq.A.rmod.Core.Rmod.steps = par.A.rmod.Core.Rmod.steps
    && vec_arrays_equal seq.A.gmod par.A.gmod
    && vec_arrays_equal seq.A.guse par.A.guse
  in
  if not ok then
    failwith
      (Printf.sprintf "%s n=%d jobs=%d: parallel result diverges from jobs=1"
         family n jobs)

(* Largest speedup seen: (speedup, family, n, jobs). *)
let best = ref (0., "", 0, 0)

let vector_ops = Obs.Metric.counter "bitvec.vector_ops"
let par_tasks = Obs.Metric.counter "par.tasks"
let par_batches = Obs.Metric.counter "par.batches"

(* One instrumented run: result, vector_ops interval, tasks, batches. *)
let counted f =
  let snap = Obs.Metric.snapshot () in
  let r = f () in
  ( r,
    Obs.Metric.value_since ~since:snap vector_ops,
    Obs.Metric.value_since ~since:snap par_tasks,
    Obs.Metric.value_since ~since:snap par_batches )

(* Best wall-clock time of [reps] runs. *)
let timed f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let measure family build n =
  let prog = build ~seed:7 ~n in
  (* Level structure of the call-graph condensation: how much
     same-level concurrency the wavefront has to work with. *)
  let levels = (Callgraph.Call.build prog).Callgraph.Call.scc.Graphs.Scc.levels in
  let gc0 = Gc.quick_stat () in
  let seq, seq_vec, _, _ = counted (fun () -> A.run prog) in
  let seq_s = timed (fun () -> A.run prog) in
  let rows =
    List.map
      (fun jobs ->
        (* Shape of the coarse plan at this job count (deterministic,
           cost probe = 1 per component: structure, not estimates). *)
        let plan = Par.Wavefront.plan levels ~jobs ~cost:(fun _ -> 1) in
        let pool = Pool.create ~jobs in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let par, par_vec, tasks, batches =
              counted (fun () -> A.run ~pool prog)
            in
            assert_identical ~family ~n ~jobs seq par;
            if par_vec <> seq_vec then
              failwith
                (Printf.sprintf "%s n=%d jobs=%d: vector_ops %d <> jobs=1 %d"
                   family n jobs par_vec seq_vec);
            let par_s = timed (fun () -> A.run ~pool prog) in
            let speedup = seq_s /. Float.max par_s 1e-9 in
            let best_speedup, _, _, _ = !best in
            if speedup > best_speedup then best := (speedup, family, n, jobs);
            Printf.printf
              "   %-13s %6d | %3d levels, width %4d | jobs %2d | %9.4f %9.4f | %5.2fx | %6d tasks %4d batches\n%!"
              family n levels.Graphs.Scc.n_levels
              levels.Graphs.Scc.max_width jobs seq_s par_s speedup tasks
              batches;
            Obs.Json.Obj
              [
                ("jobs", Obs.Json.Int jobs);
                ("elapsed_s", Obs.Json.Float par_s);
                ("speedup", Obs.Json.Float speedup);
                ("par_tasks", Obs.Json.Int tasks);
                ("par_batches", Obs.Json.Int batches);
                ("fused_levels", Obs.Json.Int plan.Par.Wavefront.fused_levels);
                ("plan_batches", Obs.Json.Int plan.Par.Wavefront.n_batches);
                ( "mean_batch_cost",
                  Obs.Json.Float plan.Par.Wavefront.mean_batch_cost );
                ("chain", Obs.Json.Bool plan.Par.Wavefront.chain);
              ]))
      par_jobs
  in
  Obs.Json.Obj
    [
      ("family", Obs.Json.String family);
      ("n_procs", Obs.Json.Int n);
      ("call_levels", Obs.Json.Int levels.Graphs.Scc.n_levels);
      ("call_max_width", Obs.Json.Int levels.Graphs.Scc.max_width);
      ("vector_ops", Obs.Json.Int seq_vec);
      ("sequential_s", Obs.Json.Float seq_s);
      ( "major_collections",
        Obs.Json.Int
          ((Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections)
      );
      ("top_heap_words", Obs.Json.Int (Gc.quick_stat ()).Gc.top_heap_words);
      ("parallel", Obs.Json.List rows);
    ]

let () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "== wavefront solvers: pool vs jobs=1 inline (best of %d, wall clock) ==\n\
    \   host: recommended_domain_count = %d%s\n"
    reps cores
    (if cores <= 1 then
       " — single core: speedup <= 1 expected, numbers measure overhead"
     else "");
  let rows =
    List.concat_map
      (fun n ->
        [
          measure "fortran_style" Workload.Families.fortran_style n;
          measure "dag_style" Workload.Families.dag_style n;
        ])
      sizes
  in
  (* A speedup above the core count cannot come from parallelism: it
     would mean the jobs=1 baseline was slowed by something else (the
     1.89x at --jobs 2 of an earlier one-core run). *)
  let speedup, family, n, jobs = !best in
  let json =
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.String "parallel");
        ( "claim",
          Obs.Json.String
            (Printf.sprintf
               "the one condensation-wavefront solver per layer gives \
                GMOD/GUSE/RMOD bit-identical to its jobs=1 inline run with \
                identical bitvec.vector_ops; wall-clock speedup tracks \
                recommended_domain_count and level width, and degrades to \
                pure (small) overhead on a single core. Largest speedup \
                here: %.2fx (%s n=%d, --jobs %d) with \
                recommended_domain_count %d, so a speedup beyond the core \
                count (the earlier 1.89x at --jobs 2 on one core) %s"
               speedup family n jobs cores
               (if speedup > float_of_int cores then "shows again"
                else "does not show") ) );
        ( "workload",
          Obs.Json.String "fortran_style and dag_style, seed 7, full Analyze.run"
        );
        ("recommended_domain_count", Obs.Json.Int cores);
        ("rows", Obs.Json.List rows);
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "   (table written to BENCH_parallel.json)\n"
