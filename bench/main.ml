(* Benchmark harness: one Bechamel test per experiment of DESIGN.md's
   per-figure/per-claim index (F1, F2, F3, C1, C2, C3), plus the L1
   empirical-linearity operation-count table.

   The paper has no measurement tables (it is a 1988 algorithms paper);
   what we regenerate is the shape of its complexity claims: who wins,
   by roughly what factor, and that the new algorithms scale linearly.
   Absolute numbers are machine-dependent.

     dune exec bench/main.exe               # run everything
     dune exec bench/main.exe -- quick      # smaller quota
     dune exec bench/main.exe -- --jobs 4   # pooled solvers where supported *)

open Bechamel
open Toolkit

(* --jobs N: run the pool-aware solvers (figure1 RMOD, findgmod,
   by-levels nesting, whole-pipeline analyze) on a shared domain pool.
   Results are bit-identical either way; only the timings move. *)
let jobs =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then 1
    else if Sys.argv.(i) = "--jobs" then int_of_string Sys.argv.(i + 1)
    else scan (i + 1)
  in
  Par.Pool.effective_jobs (scan 1)

let pool = if jobs > 1 then Some (Par.Pool.create ~jobs) else None
let () = at_exit (fun () -> Option.iter Par.Pool.shutdown pool)

(* --- prepared inputs ------------------------------------------------ *)

type prepared = {
  n : int;
  prog : Ir.Prog.t;
  info : Ir.Info.t;
  call : Callgraph.Call.t;
  binding : Callgraph.Binding.t;
  imod : Bitvec.t array;
  imod_plus : Bitvec.t array;
}

let prepare prog =
  let info = Ir.Info.make prog in
  let call = Callgraph.Call.build prog in
  let binding = Callgraph.Binding.build info in
  let imod = Frontend.Local.imod info in
  let rmod = Core.Rmod.solve binding ~imod in
  let imod_plus = Core.Imod_plus.compute info ~rmod ~imod in
  { n = Ir.Prog.n_procs prog; prog; info; call; binding; imod; imod_plus }

let flat_sizes = [ 256; 1024; 4096 ]
let flat = List.map (fun n -> prepare (Workload.Families.fortran_style ~seed:7 ~n)) flat_sizes

let nested_depths = [ 2; 4; 8 ]
let nested =
  List.map
    (fun d -> (d, prepare (Workload.Families.pascal_style ~seed:7 ~n:1024 ~depth:d)))
    nested_depths

let kernel_sizes = [ 16; 64 ]
let kernels =
  List.map (fun k -> (k, Workload.Arrays.generate ~seed:7 ~n_kernels:k)) kernel_sizes

(* --- test groups ---------------------------------------------------- *)

let t name f = Test.make ~name (Staged.stage f)

(* F1: the reference-formal problem.  Figure 1 vs the swift-style
   bit-vector solver vs naive iteration. *)
let f1_tests =
  List.concat_map
    (fun p ->
      let tag alg = Printf.sprintf "rmod/%s/n=%d" alg p.n in
      [
        t (tag "figure1") (fun () -> Core.Rmod.solve ?pool p.binding ~imod:p.imod);
        t (tag "swift") (fun () -> Baseline.Swift.rmod p.binding ~imod:p.imod);
        t (tag "iterative") (fun () -> Baseline.Iterative.rmod p.binding ~imod:p.imod);
      ])
    flat

(* F1b: the adversarial chain — the write sits at the end of a long
   by-reference chain, so naive iteration over β's edge list needs a
   pass per link (quadratic total) while Figure 1's condensation pass
   stays linear. *)
let f1b_tests =
  let chain = prepare (Workload.Families.ref_chain 4096) in
  [
    t "rmod-chain/figure1/n=4096" (fun () ->
        Core.Rmod.solve chain.binding ~imod:chain.imod);
    t "rmod-chain/iterative/n=4096" (fun () ->
        Baseline.Iterative.rmod chain.binding ~imod:chain.imod);
    t "rmod-chain/swift/n=4096" (fun () ->
        Baseline.Swift.rmod chain.binding ~imod:chain.imod);
  ]

(* F2: the global-variable problem.  findgmod (Figure 2) vs iterative
   eq-(4) vs the O(N·(N+E)) reachability closed form. *)
let f2_tests =
  List.concat_map
    (fun p ->
      let tag alg = Printf.sprintf "gmod/%s/n=%d" alg p.n in
      [
        t (tag "findgmod") (fun () -> Core.Gmod.solve ?pool p.info p.call ~imod_plus:p.imod_plus);
        t (tag "iterative") (fun () ->
            Baseline.Iterative.gmod p.info p.call ~imod_plus:p.imod_plus);
      ]
      @
      if p.n <= 1030 then
        [
          t (tag "reachability") (fun () ->
              Baseline.Reach.gmod p.info p.call ~imod_plus:p.imod_plus);
        ]
      else [])
    flat

(* F3: regular sections.  The sectioned chain vs the bit chain on the
   same array-kernel programs (Figure 3's lattice in action). *)
let f3_tests =
  List.concat_map
    (fun (k, prog) ->
      let p = prepare prog in
      let tag alg = Printf.sprintf "sections/%s/k=%d" alg k in
      [
        t (tag "rsmod")
          (let info = p.info and binding = p.binding in
           let unstable = Frontend.Local.imod_flat info in
           fun () ->
             Sections.Rsmod.solve info binding ~unstable
               ~lrsd:(Sections.Lrsd.lrsd_mod prog ~unstable));
        t (tag "full-sectioned") (fun () -> Sections.Analyze_sections.run prog);
        t (tag "bit-level") (fun () -> Core.Analyze.run ?pool prog);
      ])
    kernels

(* C1: the multi-level nesting ablation: one-pass lowlink vectors vs
   repeating Figure 2 per level. *)
let c1_tests =
  List.concat_map
    (fun (d, p) ->
      let tag alg = Printf.sprintf "nesting/%s/dP=%d" alg d in
      [
        t (tag "one-pass") (fun () ->
            Core.Gmod_nested.solve p.info p.call ~imod_plus:p.imod_plus);
        t (tag "by-levels") (fun () ->
            Core.Gmod_nested.solve_by_levels ?pool p.info p.call ~imod_plus:p.imod_plus);
      ])
    nested

(* C2: the end-to-end pipeline, analysis only and with the front end. *)
let c2_tests =
  List.concat_map
    (fun p ->
      let src = Ir.Pp.to_string p.prog in
      [
        t (Printf.sprintf "pipeline/analyze/n=%d" p.n) (fun () -> Core.Analyze.run ?pool p.prog);
        t
          (Printf.sprintf "pipeline/frontend/n=%d" p.n)
          (fun () -> Frontend.Sema.compile_exn ~file:"bench" src);
      ])
    flat

(* X1: the abstract's generality claim — the same binding-structure
   machinery solving a richer lattice (interprocedural constant
   propagation). *)
let x1_tests =
  List.map
    (fun p ->
      t (Printf.sprintf "ipcp/analyze/n=%d" p.n) (fun () ->
          Ipcp.analyze p.info ~imod_plus:p.imod_plus))
    flat

(* C3: β construction is linear and β is only k× larger than C. *)
let c3_tests =
  List.map
    (fun p ->
      t (Printf.sprintf "beta/build/n=%d" p.n) (fun () -> Callgraph.Binding.build p.info))
    flat

let groups =
  [
    ("F1  reference formals (Figure 1)", f1_tests);
    ("F1b reference formals, adversarial chain", f1b_tests);
    ("F2  global variables (Figure 2)", f2_tests);
    ("F3  regular sections (Figure 3)", f3_tests);
    ("C1  multi-level nesting ablation", c1_tests);
    ("C2  end-to-end pipeline", c2_tests);
    ("C3  binding multi-graph construction", c3_tests);
    ("X1  constant propagation on the binding structure", x1_tests);
  ]

(* --- measurement ---------------------------------------------------- *)

let quota =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "quick" then 0.1 else 0.4

let measure_test elt =
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second quota)
      ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
  let ols =
    Analyze.OLS.ols ~bootstrap:0 ~r_square:true ~responder:"monotonic-clock"
      ~predictors:[| "run" |] raw.Benchmark.lr
  in
  let ns =
    match Analyze.OLS.estimates ols with
    | Some [ est ] -> est
    | _ -> nan
  in
  let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
  (ns, r2)

let human ns =
  if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

let () =
  Printf.printf
    "== Cooper-Kennedy PLDI'88 reproduction: benchmark suite ==\n\
     workloads: flat n in {%s} (seed 7), nested n=1024 dP in {%s}, array kernels k in {%s}\n\n"
    (String.concat ", " (List.map string_of_int flat_sizes))
    (String.concat ", " (List.map string_of_int nested_depths))
    (String.concat ", " (List.map string_of_int kernel_sizes));
  let results = Hashtbl.create 64 in
  List.iter
    (fun (group, tests) ->
      Printf.printf "-- %s --\n%!" group;
      List.iter
        (fun test ->
          List.iter
            (fun elt ->
              let ns, r2 = measure_test elt in
              Hashtbl.replace results (Test.Elt.name elt) ns;
              Printf.printf "  %-32s %s/run   (r2 %.3f)\n%!" (Test.Elt.name elt)
                (human ns) r2)
            (Test.elements test))
        tests;
      print_newline ())
    groups;
  (* Derived tables: the paper's comparative claims. *)
  let get name = try Hashtbl.find results name with Not_found -> nan in
  Printf.printf "== derived: RMOD speedup over the swift-style solver (claim 3.2) ==\n";
  Printf.printf "   %8s %14s %14s %10s\n" "N" "figure1" "swift" "speedup";
  List.iter
    (fun p ->
      let f = get (Printf.sprintf "rmod/figure1/n=%d" p.n) in
      let s = get (Printf.sprintf "rmod/swift/n=%d" p.n) in
      Printf.printf "   %8d %s %s %9.1fx\n" p.n (human f) (human s) (s /. f))
    flat;
  Printf.printf "\n== derived: findgmod vs baselines (claim 4) ==\n";
  Printf.printf "   %8s %14s %14s %14s\n" "N" "findgmod" "iterative" "reachability";
  List.iter
    (fun p ->
      let f = get (Printf.sprintf "gmod/findgmod/n=%d" p.n) in
      let i = get (Printf.sprintf "gmod/iterative/n=%d" p.n) in
      let r = get (Printf.sprintf "gmod/reachability/n=%d" p.n) in
      Printf.printf "   %8d %s %s %s\n" p.n (human f) (human i)
        (if Float.is_nan r then "      (skipped)" else human r))
    flat;
  Printf.printf "\n== derived: linearity of the new algorithms (time per N+E) ==\n";
  Printf.printf "   %8s %10s %16s %16s\n" "N" "N+E" "figure1/(N+E)" "findgmod/(N+E)";
  List.iter
    (fun p ->
      let size = float_of_int (p.n + Ir.Prog.n_sites p.prog) in
      let f1 = get (Printf.sprintf "rmod/figure1/n=%d" p.n) /. size in
      let f2 = get (Printf.sprintf "gmod/findgmod/n=%d" p.n) /. size in
      Printf.printf "   %8d %10.0f %13.1f ns %13.1f ns\n" p.n size f1 f2)
    flat;
  Printf.printf "\n== derived: multi-level nesting, one-pass vs per-level (claim 4 end) ==\n";
  Printf.printf "   %8s %14s %14s %10s\n" "dP" "one-pass" "by-levels" "ratio";
  List.iter
    (fun d ->
      let o = get (Printf.sprintf "nesting/one-pass/dP=%d" d) in
      let l = get (Printf.sprintf "nesting/by-levels/dP=%d" d) in
      Printf.printf "   %8d %s %s %9.1fx\n" d (human o) (human l) (l /. o))
    nested_depths;
  (* L1: operation counts, the claims measured in the paper's own cost
     units rather than nanoseconds.  The table also lands in
     BENCH_linearity.json so the linearity claim is machine-checkable
     (EXPERIMENTS.md L1). *)
  Printf.printf "\n== L1: operation counts vs problem size (bit-vector steps / boolean steps) ==\n";
  Printf.printf "   %8s %8s %8s %8s | %12s %10s | %12s %10s\n" "N" "E" "Nb" "Eb"
    "rmod steps" "/(Nb+Eb)" "gmod vecops" "/(N+E)";
  let l1_row family n =
        let prog = family ~seed:7 ~n in
        let p = prepare prog in
        let rmod = Core.Rmod.solve p.binding ~imod:p.imod in
        let (), gmod_span =
          Obs.Span.collect "gmod" (fun () ->
              ignore (Core.Gmod.solve p.info p.call ~imod_plus:p.imod_plus))
        in
        let vec_ops = Obs.Span.metric gmod_span "bitvec.vector_ops" in
        let word_ops = Obs.Span.metric gmod_span "bitvec.word_ops" in
        let nb = Callgraph.Binding.n_nodes p.binding
        and eb = Callgraph.Binding.n_edges p.binding in
        let e = Ir.Prog.n_sites prog in
        let rmod_per = float_of_int rmod.Core.Rmod.steps /. float_of_int (nb + eb) in
        let gmod_per = float_of_int vec_ops /. float_of_int (n + e) in
        Printf.printf "   %8d %8d %8d %8d | %12d %10.2f | %12d %10.2f\n" n e nb eb
          rmod.Core.Rmod.steps rmod_per vec_ops gmod_per;
        Obs.Json.Obj
          [
            ("n_procs", Obs.Json.Int n);
            ("n_sites", Obs.Json.Int e);
            ("beta_nodes", Obs.Json.Int nb);
            ("beta_edges", Obs.Json.Int eb);
            ("rmod_steps", Obs.Json.Int rmod.Core.Rmod.steps);
            ("rmod_steps_per_beta_size", Obs.Json.Float rmod_per);
            ("gmod_vector_ops", Obs.Json.Int vec_ops);
            ("gmod_word_ops", Obs.Json.Int word_ops);
            ("gmod_vector_ops_per_size", Obs.Json.Float gmod_per);
            ("gmod_elapsed_s", Obs.Json.Float gmod_span.Obs.Span.elapsed);
            ( "major_collections",
              Obs.Json.Int gmod_span.Obs.Span.gc.Obs.Span.major_collections );
            ( "top_heap_words",
              Obs.Json.Int gmod_span.Obs.Span.gc.Obs.Span.top_heap_words );
          ]
  in
  (* Two scaling regimes (docs/parallel.md, bench_check): fortran_style
     grows globals with n (summary-set output size is inherently
     quadratic, word ops sit near that floor); fortran_fixed holds the
     global population constant, where word ops too are linear. *)
  let l1_rows =
    List.concat_map
      (fun (fname, family) ->
        Printf.printf "   -- %s --\n" fname;
        List.map
          (fun n ->
            match l1_row family n with
            | Obs.Json.Obj fields ->
              Obs.Json.Obj (("family", Obs.Json.String fname) :: fields)
            | j -> j)
          [ 128; 256; 512; 1024; 2048; 4096; 8192 ])
      [
        ("fortran_style", fun ~seed ~n -> Workload.Families.fortran_style ~seed ~n);
        ("fortran_fixed", fun ~seed ~n -> Workload.Families.fortran_fixed ~seed ~n);
      ]
  in
  let l1_json =
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.String "L1");
        ( "claim",
          Obs.Json.String
            "rmod boolean steps scale with N_beta+E_beta; findgmod bit-vector \
             steps scale with N+E" );
        ("workload", Obs.Json.String "fortran_style and fortran_fixed, seed 7");
        ("rows", Obs.Json.List l1_rows);
      ]
  in
  let oc = open_out "BENCH_linearity.json" in
  output_string oc (Obs.Json.to_string l1_json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "   (table written to BENCH_linearity.json)\n";
  (* P1: precision — the §2 motivation measured.  Compare, per executed
     call site, the worst-case assumption (everything visible), the
     computed MOD, and the dynamically observed modifications. *)
  Printf.printf "\n== P1: precision of MOD vs worst-case and vs observed behaviour ==\n";
  Printf.printf "   %8s %10s %10s %10s %12s\n" "N" "visible" "MOD" "observed" "sites run";
  List.iter
    (fun n ->
      (* A more layered workload than the scaling sweeps: mostly
         forward calls and moderate by-ref traffic, so MOD sets differ
         visibly between shallow and deep procedures. *)
      let rng = Random.State.make [| 7; n; 0x51 |] in
      let prog =
        Workload.Gen.generate rng
          {
            Workload.Gen.default with
            Workload.Gen.n_procs = n;
            n_globals = (n / 2) + 8;
            recursion = 0.05;
            binding_density = 0.4;
            sites_per_proc = 2;
          }
      in
      let t = Core.Analyze.run prog in
      let o = Interp.run ~fuel:200_000 ~max_depth:1024 prog in
      let vis = ref 0 and m = ref 0 and obs = ref 0 and ran = ref 0 in
      Ir.Prog.iter_sites prog (fun s ->
          let sid = s.Ir.Prog.sid in
          if o.Interp.calls_executed.(sid) > 0 then begin
            incr ran;
            vis :=
              !vis + Bitvec.cardinal (Ir.Info.visible t.Core.Analyze.info s.Ir.Prog.caller);
            m := !m + Bitvec.cardinal (Core.Analyze.mod_of_site t sid);
            obs := !obs + Bitvec.cardinal (Interp.observed_mod o sid)
          end);
      let per x = float_of_int x /. float_of_int (max 1 !ran) in
      Printf.printf "   %8d %10.1f %10.1f %10.1f %12d\n" n (per !vis) (per !m)
        (per !obs) !ran)
    [ 32; 64; 128 ];
  Printf.printf "\n== C3: beta vs C sizes (claim 3.1: beta is only k x larger) ==\n";
  Printf.printf "   %8s %8s %8s %8s %8s %8s\n" "N" "E" "Nb" "Eb" "mu_f" "mu_a";
  List.iter
    (fun p ->
      Printf.printf "   %8d %8d %8d %8d %8.2f %8.2f\n" p.n (Ir.Prog.n_sites p.prog)
        (Callgraph.Binding.n_nodes p.binding)
        (Callgraph.Binding.n_edges p.binding)
        (Callgraph.Binding.mu_f p.prog) (Callgraph.Binding.mu_a p.prog))
    flat
