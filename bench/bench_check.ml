(* Regression gate over the two perf claims that matter (ISSUE 8 /
   docs/parallel.md): hybrid bit-vector word ops must stay near-linear
   in program size, and a 4-way pool must never cost more than a
   pinned overhead factor versus sequential.  Reduced configuration so
   it is cheap enough for the default make flow (`make bench-check`);
   exit code 1 on any regression.

   Pins are deliberately conservative: they are tripwires for
   accidental quadratic blowups or pool-startup regressions, not tight
   performance assertions.

   Two word-ops ladders, because the families answer different
   questions:

   - [fortran_fixed] holds the global population constant, so summary
     sets are bounded and total word work should be genuinely linear
     in program size (~2x per doubling).  This is where the paper's
     O(N+E) bound is visible in word counts; a regression here means
     the hybrid representation or the escape-form solve broke.

   - [fortran_style] scales globals with n, so the summary sets
     themselves grow ~4x per doubling — total output size is
     inherently quadratic and no representation can beat
     Σ_edges |GMOD(src)| words.  The pin here asserts we stay near
     that information floor (dense vectors gave ~4x per doubling at
     these sizes; the escape-form solve over prefix-sized vectors
     gives 1.6-2.4x).

   Both ladders measure [Gmod_nested.solve], the entry point the
   analysis runs for every program. *)

module A = Core.Analyze

let word_ops_ladders =
  [
    ( "fortran_fixed",
      Workload.Families.fortran_fixed,
      [ 256; 512; 1024; 2048 ],
      (* linear regime: 2x per doubling + headroom *)
      2.4 );
    ( "fortran_style",
      Workload.Families.fortran_style,
      [ 128; 256; 512; 1024 ],
      (* near the quadratic-output information floor *)
      2.5 );
  ]

(* Pool overhead: minimum jobs-4 / jobs-1 wall-clock ratio on the
   2048-proc families.  The floor depends on what the host can
   deliver: with >= 4 cores the pool must actually win (ISSUE 8 claims
   >1.5x there); with fewer cores extra domains can only add GC
   rendezvous cost, so the floor just bounds that overhead.  The two
   sides are timed in alternation, best of [reps] each, so host noise
   hits both alike. *)
let speedup_families =
  [ ("fortran_style", Workload.Families.fortran_style);
    ("dag_style", Workload.Families.dag_style) ]

let speedup_n = 2048
let speedup_jobs = 4

let speedup_floor =
  let cores = Domain.recommended_domain_count () in
  if cores >= speedup_jobs then 1.5 else if cores >= 2 then 0.85 else 0.5

(* Repetitions per side of the speedup measurement. *)
let reps = 5

let word_ops_metric = Obs.Metric.counter "bitvec.word_ops"

let failures = ref 0

let check name ok detail =
  Printf.printf "   [%s] %s — %s\n%!" (if ok then "ok" else "FAIL") name detail;
  if not ok then incr failures

(* Best wall-clock times of [reps] alternating runs of [seq] and [par].
   Interleaving exposes both sides to the same host noise, and the
   minimum on each side keeps its least-disturbed run. *)
let interleaved_best ~seq ~par =
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let seq_s = ref infinity and par_s = ref infinity in
  for _ = 1 to reps do
    seq_s := Float.min !seq_s (time seq);
    par_s := Float.min !par_s (time par)
  done;
  (!seq_s, !par_s)

let gmod_word_ops build n =
  let prog = build ~seed:7 ~n in
  let info = Ir.Info.make prog in
  let call = Callgraph.Call.build prog in
  let binding = Callgraph.Binding.build info in
  let imod = Frontend.Local.imod info in
  let rmod = Core.Rmod.solve binding ~imod in
  let imod_plus = Core.Imod_plus.compute info ~rmod ~imod in
  let snap = Obs.Metric.snapshot () in
  ignore (Core.Gmod_nested.solve info call ~imod_plus);
  Obs.Metric.value_since ~since:snap word_ops_metric

(* The must-side dual of the ladder above: MUSTMOD alone, after the
   may-side inputs it consumes are in hand.  On [fortran_fixed]'s
   bounded summaries the pass must stay in the linear regime.  The same
   analysed program then feeds the reaching-definitions gate: the
   definition ids the gen/kill build visits, summed over procedures. *)
let kill_visits_metric = Obs.Metric.counter "dataflow.kill_visits"

let mustmod_point build n =
  let prog = build ~seed:7 ~n in
  let a = A.run prog in
  let snap = Obs.Metric.snapshot () in
  ignore (Core.Mustmod.solve a.A.info a.A.call ~alias:a.A.alias ~gmod:a.A.gmod);
  let words = Obs.Metric.value_since ~since:snap word_ops_metric in
  let snap = Obs.Metric.snapshot () in
  Dataflow.Driver.solve_all (Dataflow.Driver.create a);
  (words, Obs.Metric.value_since ~since:snap kill_visits_metric)

let mustmod_ladder = [ 256; 512; 1024; 2048 ]

(* MUSTMOD's counted word ops are its projections of callee sets at
   call sites and its expansions onto the full universe, and how many
   of those vectors the random call graph pushes into the dense form
   varies from size to size, so individual doubling steps are noisy.
   The gate is therefore the growth exponent fitted across the whole
   ladder — 1.0 is linear, 2.0 is quadratic; measured ~0.9 — plus a
   loose per-step cap that catches a localized cliff. *)
let mustmod_exponent_max = 1.6
let mustmod_step_max = 4.0

(* MUSTMOD work per output bit.  The solver derives each must fact at
   most once per scope (body root or [if] branch), so the facts it
   pushes ([mustmod.facts], point operations the word ops do not see)
   stay a flat multiple of the MUSTMOD bits it outputs.  Gated on the
   families whose outputs grow faster than n: [fortran_style], whose
   random recursion makes large cyclic components, and [dag_style],
   which has none.  Measured 1.03-1.24 per bit over both ladders. *)
let must_facts_families =
  [ ("fortran_style", Workload.Families.fortran_style);
    ("dag_style", Workload.Families.dag_style) ]

let must_facts_ladder = [ 256; 512; 1024; 2048 ]
let must_facts_per_bit_max = 1.5
let facts_metric = Obs.Metric.counter "mustmod.facts"

let must_facts_per_bit build n =
  let prog = build ~seed:7 ~n in
  let snap = Obs.Metric.snapshot () in
  let a = A.run prog in
  let facts = Obs.Metric.value_since ~since:snap facts_metric in
  let bits =
    Array.fold_left (fun acc v -> acc + Bitvec.cardinal v) 0 a.A.mustmod.Core.Mustmod.mustmod
  in
  float_of_int facts /. float_of_int (max 1 bits)

(* Reaching definitions build gen/kill with one walk of defs(v) per
   block that definitely writes [v], so on [fortran_fixed]'s bounded
   summaries the visits grow near-linearly (measured ~1.2); re-walking
   defs(v) at every definite write grows ~2.07, about 4x per
   doubling. *)
let kill_visits_exponent_max = 1.5

(* Front-end allocation: the minor-heap words of one
   [Sema.compile_with_locs] of [fortran_fixed] rendered by [Ir.Pp].  The
   lexer allocates per token, not per character, and every table of
   resolve is a hash table or an array indexed by id, so the words grow
   like the source text: 2.0 per doubling, 5.9-6.2 per source byte over
   the ladder.  The list-based front end read 21 per byte.  Allocation
   counts are deterministic, so unlike the speedup gate below this one
   cannot flake. *)
let frontend_ladder = [ 512; 1024; 2048; 4096 ]
let frontend_ratio_max = 2.2
let frontend_words_per_byte_max = 7.0

let frontend_words n =
  let src = Ir.Pp.to_string (Workload.Families.fortran_fixed ~seed:7 ~n) in
  let w0 = Gc.minor_words () in
  (match Frontend.Sema.compile_with_locs ~file:"bench-check" src with
  | Ok _ -> ()
  | Error _ -> failwith "bench-check: generated source does not compile");
  (String.length src, int_of_float (Gc.minor_words () -. w0))

(* Set-bit enumeration must not depend on where a member sits in its
   word: every read-out of a solved set ([iter], [to_list], the
   gen/kill walks, the per-site answers) goes through it uncharged, so
   a per-position cost shows in no word-op pin.  The gate times [iter]
   over dense vectors of [enum_n] bits whose members are all bit 62 of
   their word (the sign bit) and all bit 0, interleaved, best of
   [enum_reps] batches each, and bounds the per-member ratio.  A kernel
   that shifts the low bit down one place per step reads 8-13 here;
   a constant-time bit index reads about 1. *)
let enum_n = 65536
let enum_reps = 7
let enum_ratio_max = 2.0

let enum_ratio () =
  let dense offset =
    let saved = Bitvec.hybrid_enabled () in
    Bitvec.set_hybrid false;
    let v = Bitvec.create enum_n in
    let w = ref 0 in
    while (!w * Sys.int_size) + offset < enum_n do
      Bitvec.set v ((!w * Sys.int_size) + offset);
      incr w
    done;
    Bitvec.set_hybrid saved;
    (v, !w)
  in
  let time (v, members) =
    let batch = 1_000_000 / members in
    let sum = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      Bitvec.iter (fun i -> sum := !sum + i) v
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int (batch * members)
  in
  let low = dense 0 and high = dense (Sys.int_size - 1) in
  let low_s = ref infinity and high_s = ref infinity in
  for _ = 1 to enum_reps do
    low_s := Float.min !low_s (time low);
    high_s := Float.min !high_s (time high)
  done;
  (1e9 *. !low_s, 1e9 *. !high_s)

(* §5 binds a dereference actual as one interned cell set, and walks
   the visible cells of a set once per callee formal it binds, so the
   projection cells its introduction rules read ([alias.binding_cells])
   stay within the pairs it produces plus one probe per site.  On
   [ptr_funnel] under Steensgaard every one of the n sites binds the
   same n-cell set to one of two formals: expanding it at every site
   reads n² cells for 2n pairs. *)
let binding_cells_ladder = [ 200; 400; 800; 1600 ]
let binding_cells_metric = Obs.Metric.counter "alias.binding_cells"

let binding_cells n =
  let prog = Workload.Families.ptr_funnel n in
  let snap = Obs.Metric.snapshot () in
  let a = A.run ~ptsto:Ptsto.Steensgaard prog in
  ( Obs.Metric.value_since ~since:snap binding_cells_metric,
    Core.Alias.total_pairs a.A.alias,
    Ir.Prog.n_sites prog )

(* Every step of a size-doubling ladder grows by at most [ratio_max]. *)
let rec doubling_steps what counts ratio_max =
  match counts with
  | (n0, w0) :: ((n1, w1) :: _ as rest) ->
    let r = float_of_int w1 /. float_of_int (max 1 w0) in
    check
      (Printf.sprintf "%s %d->%d" what n0 n1)
      (r <= ratio_max)
      (Printf.sprintf "%.2fx per doubling (max %.2f)" r ratio_max);
    doubling_steps what rest ratio_max
  | _ -> ()

(* Growth exponent of [counts] fitted from its first to its last
   point: 1.0 is linear, 2.0 quadratic. *)
let exponent_gate name counts ceiling =
  match (counts, List.rev counts) with
  | (n0, w0) :: _, (n1, w1) :: _ when n1 > n0 ->
    let e =
      log (float_of_int w1 /. float_of_int (max 1 w0))
      /. log (float_of_int n1 /. float_of_int n0)
    in
    check
      (Printf.sprintf "%s growth exponent %d..%d" name n0 n1)
      (e <= ceiling)
      (Printf.sprintf "n^%.2f fitted over the ladder (max n^%.2f)" e ceiling)
  | _ -> ()

let () =
  Printf.printf "== bench-check: pinned perf regressions (reduced config) ==\n";
  (* 1. word-ops growth ladders *)
  List.iter
    (fun (family, build, ladder, ratio_max) ->
      let counts = List.map (fun n -> (n, gmod_word_ops build n)) ladder in
      List.iter
        (fun (n, w) ->
          Printf.printf "   %s gmod_word_ops n=%-5d %d\n%!" family n w)
        counts;
      doubling_steps (family ^ " word-ops growth") counts ratio_max)
    word_ops_ladders;
  (* 1b. MUSTMOD growth-exponent gate on the linear regime *)
  let points =
    List.map
      (fun n -> (n, mustmod_point Workload.Families.fortran_fixed n))
      mustmod_ladder
  in
  let counts = List.map (fun (n, (w, _)) -> (n, w)) points in
  List.iter
    (fun (n, w) ->
      Printf.printf "   fortran_fixed mustmod_word_ops n=%-5d %d\n%!" n w)
    counts;
  let rec must_steps = function
    | (n0, w0) :: ((n1, w1) :: _ as rest) ->
      let r = float_of_int w1 /. float_of_int (max 1 w0) in
      check
        (Printf.sprintf "mustmod word-ops step %d->%d" n0 n1)
        (r <= mustmod_step_max)
        (Printf.sprintf "%.2fx per doubling (cliff cap %.2f)" r mustmod_step_max);
      must_steps rest
    | _ -> ()
  in
  must_steps counts;
  exponent_gate "mustmod word-ops" counts mustmod_exponent_max;
  (* 1b'. MUSTMOD facts per output bit on the growing-output families *)
  List.iter
    (fun (family, build) ->
      List.iter
        (fun n ->
          let r = must_facts_per_bit build n in
          check
            (Printf.sprintf "%s mustmod facts per bit n=%d" family n)
            (r <= must_facts_per_bit_max)
            (Printf.sprintf "%.2f (max %.2f)" r must_facts_per_bit_max))
        must_facts_ladder)
    must_facts_families;
  (* 1c. reaching-definitions gen/kill growth exponent, same programs *)
  let visits = List.map (fun (n, (_, k)) -> (n, k)) points in
  List.iter
    (fun (n, k) ->
      Printf.printf "   fortran_fixed dataflow_kill_visits n=%-5d %d\n%!" n k)
    visits;
  exponent_gate "dataflow kill-visits" visits kill_visits_exponent_max;
  (* 1d. front-end minor words: linear growth and a per-byte ceiling *)
  let points = List.map (fun n -> (n, frontend_words n)) frontend_ladder in
  List.iter
    (fun (n, (bytes, w)) ->
      let per_byte = float_of_int w /. float_of_int bytes in
      Printf.printf "   fortran_fixed frontend_minor_words n=%-5d %d (%.2f per byte)\n%!" n w
        per_byte;
      check
        (Printf.sprintf "frontend minor words per byte n=%d" n)
        (per_byte <= frontend_words_per_byte_max)
        (Printf.sprintf "%.2f (max %.2f)" per_byte frontend_words_per_byte_max))
    points;
  doubling_steps "frontend minor-words growth"
    (List.map (fun (n, (_, w)) -> (n, w)) points)
    frontend_ratio_max;
  (* 1e. set-bit enumeration: the same cost per member at every bit *)
  let low_ns, high_ns = enum_ratio () in
  let r = high_ns /. low_ns in
  Printf.printf "   bitvec iter n=%d: %.2f ns/member at bit 0, %.2f at bit %d\n%!" enum_n
    low_ns high_ns (Sys.int_size - 1);
  check "bitvec iter bit-62/bit-0 per member" (r <= enum_ratio_max)
    (Printf.sprintf "%.2f (max %.2f)" r enum_ratio_max);
  (* 1f. §5 projection cells read per pair on the pointer funnel *)
  List.iter
    (fun n ->
      let cells, pairs, sites = binding_cells n in
      check
        (Printf.sprintf "ptr_funnel alias binding cells n=%d" n)
        (cells <= pairs + sites)
        (Printf.sprintf "%d cells (max pairs %d + sites %d)" cells pairs sites))
    binding_cells_ladder;
  (* 2. jobs-4 overhead + bit-identity on the 2048-proc families *)
  Printf.printf "   speedup floor %.2f (recommended_domain_count %d)\n%!"
    speedup_floor
    (Domain.recommended_domain_count ());
  List.iter
    (fun (family, build) ->
      let prog = build ~seed:7 ~n:speedup_n in
      let seq = A.run prog in
      let pool = Par.Pool.create ~jobs:speedup_jobs in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool)
        (fun () ->
          let par = A.run ~pool prog in
          let identical =
            Array.for_all2 Bitvec.equal seq.A.gmod par.A.gmod
            && Array.for_all2 Bitvec.equal seq.A.guse par.A.guse
            && Array.for_all2 Bitvec.equal seq.A.mustmod.Core.Mustmod.mustmod
                 par.A.mustmod.Core.Mustmod.mustmod
            && Array.for_all2 Bool.equal seq.A.rmod.Core.Rmod.rmod
                 par.A.rmod.Core.Rmod.rmod
          in
          check
            (Printf.sprintf "%s n=%d jobs-%d identity" family speedup_n
               speedup_jobs)
            identical "summaries bit-identical to sequential";
          let seq_s, par_s =
            interleaved_best
              ~seq:(fun () -> A.run prog)
              ~par:(fun () -> A.run ~pool prog)
          in
          let speedup = seq_s /. Float.max par_s 1e-9 in
          check
            (Printf.sprintf "%s n=%d jobs-%d speedup" family speedup_n
               speedup_jobs)
            (speedup >= speedup_floor)
            (Printf.sprintf "%.2fx (floor %.2f; seq %.4fs, par %.4fs)" speedup
               speedup_floor seq_s par_s)))
    speedup_families;
  if !failures > 0 then begin
    Printf.printf "bench-check: %d failure(s)\n" !failures;
    exit 1
  end
  else Printf.printf "bench-check: all pins hold\n"
