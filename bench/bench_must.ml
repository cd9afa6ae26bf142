(* MUSTMOD solve cost: time, counted bit-vector word operations and
   derived must facts for the interprocedural must-modify pass, after
   the may-side summaries it consumes (GMOD, §5 aliases) are in hand.

   The claim being measured: the pass does work proportional to its
   output.  Every procedure is solved once per solve ([rounds] =
   procedures), the facts it derives ([mustmod.facts]) stay a flat
   multiple of the MUSTMOD bits it outputs on every family, and on the
   bounded-summary regime ([fortran_fixed] holds the global population
   constant) word work grows near-linearly in program size.  The
   [fortran_style] and [dag_style] ladders scale the globals with n, so
   their outputs grow faster than n; [fortran_style]'s random recursion
   makes large cyclic components, [dag_style] has none.  They stop at
   2048 procedures, where the worklist solver took half a minute a row.

   [before] in BENCH_must.json holds rows this harness measured on the
   worklist solver (a member re-ran its whole transfer whenever an
   in-component callee grew); reruns keep every key they do not write.

     dune exec bench/bench_must.exe        # writes BENCH_must.json *)

module A = Core.Analyze
module M = Core.Mustmod
module F = Workload.Families

let reps = 3

let ladders =
  [
    ("fortran_fixed", [ 50; 100; 200; 400; 800; 1600 ], F.fortran_fixed);
    ("fortran_style", [ 256; 512; 1024; 2048 ], F.fortran_style);
    ("dag_style", [ 256; 512; 1024; 2048 ], F.dag_style);
  ]

let word_ops_metric = Obs.Metric.counter "bitvec.word_ops"
let facts_metric = Obs.Metric.counter "mustmod.facts"

let measure family build n =
  let prog = build ~seed:7 ~n in
  let gc0 = Gc.quick_stat () in
  let a = A.run prog in
  let solve () = M.solve a.A.info a.A.call ~alias:a.A.alias ~gmod:a.A.gmod in
  let snap = Obs.Metric.snapshot () in
  let m = solve () in
  let word_ops = Obs.Metric.value_since ~since:snap word_ops_metric in
  let facts = Obs.Metric.value_since ~since:snap facts_metric in
  let elapsed = Harness.timed reps solve in
  let n_procs = Ir.Prog.n_procs prog in
  let bits = Array.fold_left (fun acc v -> acc + Bitvec.cardinal v) 0 m.M.mustmod in
  let us_per_proc = 1e6 *. elapsed /. float_of_int (max 1 n_procs) in
  let facts_per_bit = float_of_int facts /. float_of_int (max 1 bits) in
  Printf.printf
    "   %-13s n=%5d | %5d procs %7d must bits %7d rounds %8d facts (%.2f/bit) | \
     %9d word ops  %8.4fs  %7.2f us/proc\n\
     %!"
    family n n_procs bits m.M.rounds facts facts_per_bit word_ops elapsed us_per_proc;
  Obs.Json.Obj
    [
      ("family", Obs.Json.String family);
      ("n", Obs.Json.Int n);
      ("n_procs", Obs.Json.Int n_procs);
      ("must_bits", Obs.Json.Int bits);
      ("rounds", Obs.Json.Int m.M.rounds);
      ("facts", Obs.Json.Int facts);
      ("facts_per_bit", Obs.Json.Float facts_per_bit);
      ("word_ops", Obs.Json.Int word_ops);
      ("elapsed_s", Obs.Json.Float elapsed);
      ("us_per_proc", Obs.Json.Float us_per_proc);
      ( "major_collections",
        Obs.Json.Int
          ((Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections)
      );
    ]

let () =
  Printf.printf
    "== interprocedural MUSTMOD solve (best of %d, wall clock, after \
     Analyze.run) ==\n"
    reps;
  let rows =
    List.concat_map
      (fun (family, sizes, build) -> List.map (measure family build) sizes)
      ladders
  in
  Harness.write_json "BENCH_must.json"
    [
      ("experiment", Obs.Json.String "mustmod");
      ( "claim",
        Obs.Json.String
          "the must-modify pass does work proportional to its output: one \
           member solve per procedure (rounds = procedures), derived facts \
           a flat multiple of the MUSTMOD bits on every family, and word \
           ops ~2x per size doubling on the bounded-summary regime" );
      ( "workload",
        Obs.Json.String
          "fortran_fixed, fortran_style, dag_style, seed 7, Mustmod.solve \
           alone after Analyze.run, best of 3" );
      ("rows", Obs.Json.List rows);
    ]
