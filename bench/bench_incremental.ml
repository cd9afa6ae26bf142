(* Incremental vs from-scratch re-analysis after edits (experiment for
   the incremental engine; see docs/incremental.md).

   Workloads:
   - [head]: the two chain families whose condensation makes locality
     visible — [ref_chain n] (main -> p1 -> ... -> pn through one by-ref
     formal) and [global_chain n] (same spine, effects through a
     global).  The edit stream alternates adding and removing [g0 := 1]
     at the head procedure [p1], whose ancestor cone is just {main, p1};
     every edit flips IMOD(p1), so nothing is amortised away by no-op
     detection.
   - [deep]: the same stream at ref_chain's tail procedure [pn], whose
     ancestor cone is the whole chain — the case a size cut-off would
     send to a from-scratch run.
   - [script]: seeded [Workload.Edits.gen] scripts over dag_style,
     fortran_fixed and the pointer families ptr_chain and ptr_funnel,
     every edit constructor mixed.  Structural edits, and pointer edits
     that move the points-to projection, re-solve every procedure; the
     others re-solve a cone.

   Rows carry [provenance]: [true] rows repeat head and script streams
   on a provenance-carrying base, as the analysis server's sessions
   edit one (both sides run with [~provenance:true]).  An edit
   attaches a lazy derivation forest and builds none, so these rows
   should cost what their provenance-off twins cost.

   Every edit is also an equality assertion: the engine's GMOD/GUSE and
   RMOD/RUSE are compared bit for bit against the fresh run it is being
   timed against.

     make bench-incremental                                 # writes BENCH_incremental.json
     dune exec bench/bench_incremental.exe -- --jobs 4      # cone re-solves on a 4-way pool *)

module A = Core.Analyze
module Engine = Incremental.Engine
module Edit = Incremental.Edit

let edits_per_chain = 20
let script_seed = 1
let script_n = 256
let script_steps = 40

(* --jobs N: run both sides (engine cone re-solves and the from-scratch
   baseline) on a shared domain pool; output is identical by the
   determinism contract, only the timings move. *)
let jobs =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then 1
    else if Sys.argv.(i) = "--jobs" then int_of_string Sys.argv.(i + 1)
    else scan (i + 1)
  in
  Par.Pool.effective_jobs (scan 1)

let pool = if jobs > 1 then Some (Par.Pool.create ~jobs) else None
let () = at_exit (fun () -> Option.iter Par.Pool.shutdown pool)

let bool_arrays_equal = Array.for_all2 Bool.equal
let vec_arrays_equal = Array.for_all2 Bitvec.equal

let assert_equal ~family ~n ~i (inc : A.t) (batch : A.t) =
  let ok =
    bool_arrays_equal inc.A.rmod.Core.Rmod.rmod batch.A.rmod.Core.Rmod.rmod
    && bool_arrays_equal inc.A.ruse.Core.Rmod.rmod batch.A.ruse.Core.Rmod.rmod
    && vec_arrays_equal inc.A.gmod batch.A.gmod
    && vec_arrays_equal inc.A.guse batch.A.guse
  in
  if not ok then
    failwith
      (Printf.sprintf "%s n=%d edit %d: incremental result diverges from batch"
         family n i)

(* One edit stream: drive it through the engine and through
   from-scratch analysis of each resulting program, timing each side. *)
let measure ?(provenance = false) ~family ~workload ~n prog steps =
  let resolved = Obs.Metric.counter "incremental.procs_resolved" in
  let snap = Obs.Metric.snapshot () in
  let gc0 = Gc.quick_stat () in
  let engine = Engine.of_analysis ?pool (A.run ?pool ~provenance prog) in
  let inc_time = ref 0.0 and batch_time = ref 0.0 in
  List.iteri
    (fun i (edit, expected) ->
      let t0 = Obs.Clock.now () in
      let (_ : Engine.outcome) = Engine.apply engine edit in
      inc_time := !inc_time +. (Obs.Clock.now () -. t0);
      let t0 = Obs.Clock.now () in
      let batch = A.run ?pool ~provenance expected in
      batch_time := !batch_time +. (Obs.Clock.now () -. t0);
      assert_equal ~family ~n ~i (Engine.analysis engine) batch)
    steps;
  let speedup = !batch_time /. Float.max !inc_time 1e-9 in
  Printf.printf "   %-12s %-8s %-4s %6d | %10.6f %10.6f | %8.1fx | %6d\n"
    family workload
    (if provenance then "on" else "off")
    n !inc_time !batch_time speedup
    (Obs.Metric.value_since ~since:snap resolved);
  Obs.Json.Obj
    [
      ("family", Obs.Json.String family);
      ("workload", Obs.Json.String workload);
      ("provenance", Obs.Json.Bool provenance);
      ("n_procs", Obs.Json.Int n);
      ("edits", Obs.Json.Int (List.length steps));
      ("incremental_s", Obs.Json.Float !inc_time);
      ("batch_s", Obs.Json.Float !batch_time);
      ("speedup", Obs.Json.Float speedup);
      ( "procs_resolved",
        Obs.Json.Int (Obs.Metric.value_since ~since:snap resolved) );
      ( "major_collections",
        Obs.Json.Int
          ((Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections)
      );
      ("top_heap_words", Obs.Json.Int (Gc.quick_stat ()).Gc.top_heap_words);
    ]

(* Alternately add and remove [g0 := 1] at the end of [proc]'s body. *)
let chain_steps prog proc =
  let pid = (Option.get (Ir.Prog.find_proc prog proc)).Ir.Prog.pid in
  let g0 = (Option.get (Ir.Prog.find_var prog ~proc:pid "g0")).Ir.Prog.vid in
  let add = Edit.Add_assign { proc = pid; target = g0; value = Ir.Expr.Int 1 } in
  let base_len = List.length (Ir.Prog.proc prog pid).Ir.Prog.body in
  let remove = Edit.Remove_assign { proc = pid; index = base_len } in
  let cur = ref prog in
  List.init edits_per_chain (fun i ->
      let edit = if i mod 2 = 0 then add else remove in
      cur := Edit.apply !cur edit;
      (edit, !cur))

let chain ?provenance ~family ~workload build n =
  let prog = build n in
  let proc = if workload = "head" then "p1" else Printf.sprintf "p%d" n in
  measure ?provenance ~family ~workload ~n prog (chain_steps prog proc)

let script ?provenance family prog =
  let rand = Random.State.make [| script_seed; 0xed17 |] in
  measure ?provenance ~family ~workload:"script" ~n:script_n prog
    (Workload.Edits.gen ~rand ~steps:script_steps prog)

let () =
  Printf.printf
    "== incremental re-analysis vs from-scratch (%d edits/chain row, \
     %d-step scripts, jobs=%d) ==\n"
    edits_per_chain script_steps jobs;
  Printf.printf "   %-12s %-8s %-4s %6s | %10s %10s | %9s | %6s\n" "family"
    "workload" "prov" "N" "inc (s)" "batch (s)" "speedup" "rslv";
  let chains =
    List.concat_map
      (fun n ->
        let module F = Workload.Families in
        let r = chain ~family:"ref_chain" ~workload:"head" F.ref_chain n in
        let g = chain ~family:"global_chain" ~workload:"head" F.global_chain n in
        (* global_chain's pn already writes g0, so only ref_chain has a
           deep row. *)
        let d = chain ~family:"ref_chain" ~workload:"deep" F.ref_chain n in
        [ r; g; d ])
      [ 64; 256; 1024; 4096 ]
  in
  let scripts =
    let module F = Workload.Families in
    List.map
      (fun (family, build) -> script family (build ()))
      [
        ("dag_style", fun () -> F.dag_style ~seed:script_seed ~n:script_n);
        ("fortran_fixed", fun () -> F.fortran_fixed ~seed:script_seed ~n:script_n);
        ("ptr_chain", fun () -> F.ptr_chain script_n);
        ("ptr_funnel", fun () -> F.ptr_funnel script_n);
      ]
  in
  (* The same head and script streams on a provenance-carrying base. *)
  let with_provenance =
    let module F = Workload.Families in
    let heads =
      List.concat_map
        (fun n ->
          let r =
            chain ~provenance:true ~family:"ref_chain" ~workload:"head"
              F.ref_chain n
          in
          let g =
            chain ~provenance:true ~family:"global_chain" ~workload:"head"
              F.global_chain n
          in
          [ r; g ])
        [ 256; 1024 ]
    in
    heads
    @ List.map
        (fun (family, build) -> script ~provenance:true family (build ()))
        [
          ("dag_style", fun () -> F.dag_style ~seed:script_seed ~n:script_n);
          ( "fortran_fixed",
            fun () -> F.fortran_fixed ~seed:script_seed ~n:script_n );
        ]
  in
  let rows = chains @ scripts @ with_provenance in
  let json =
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.String "incremental");
        ( "claim",
          Obs.Json.String
            "single-procedure edits re-solve the condensation-ancestor cone, \
             beating from-scratch analysis at every size even when the cone \
             is the whole chain; every edit goes through the engine's own \
             stages, pointer programs included (points-to is re-solved per \
             edit; structural edits and edits that move the points-to \
             projection run them with every procedure dirty); results \
             asserted bit-identical per edit; on a provenance-carrying \
             base an edit costs what it costs without provenance, since \
             the derivation forest is built on first read, not per edit" );
        ( "workload",
          Obs.Json.String
            "ref_chain/global_chain, alternating add/remove of g0 := 1 in p1 \
             (head), and in pn of ref_chain (deep); Workload.Edits.gen \
             scripts (seed 1, 40 steps) on dag_style, fortran_fixed, \
             ptr_chain and ptr_funnel n=256; n_procs is the family size \
             n, and ptr_funnel 256 has 3 procedures and 256 call sites; \
             provenance:true rows repeat the head streams at n=256 and \
             1024 and the dag_style and fortran_fixed scripts with \
             ~provenance:true on both sides" );
        ("rows", Obs.Json.List rows);
      ]
  in
  let oc = open_out "BENCH_incremental.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "   (table written to BENCH_incremental.json)\n"
