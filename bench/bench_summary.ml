(* §5 cost: the alias closure and the per-site MOD/USE query.

   Per (family, size): the time of [Alias.compute] inside
   [Analyze.run] (the ["alias"] span on {!Obs.Clock}, processor time,
   median of [reps] runs), its
   [alias.pair_visits] and pair count, its non-empty log slices read and
   sorted ([alias.slice_reads] / [alias.slice_sorts]: a read that is
   not a sort reused the slice an earlier site of the same caller
   sorted), the points-to projection cells its introduction rules read
   ([alias.binding_cells]), the cost of [Summary.make] (the
   ["summary"] span), and one per-site query — a single
   [Analyze.mod_of_site] or [use_of_site] — as the median over every
   site and both sides of its time (each query repeated [query_reps]
   times on one clock reading) and of its [bitvec.word_ops].

   The claim being measured: a query copies its callee's shared vector
   (eq. 8) and closes it over the partner rows its set hits, so its
   word ops follow the answer, not the callee's GMOD or the caller's
   whole ALIAS(p).

   [before] in BENCH_summary.json holds rows this harness measured on
   the earlier code (each dereference actual expanded into one binding
   per projected cell at every site), and [ablations] the alias_ms of
   variants of [Alias.compute] built from this harness's checkout;
   reruns keep every key they do not write.

     dune exec bench/bench_summary.exe        # writes BENCH_summary.json *)

module A = Core.Analyze

let reps = 5
let query_reps = 16

let ladder =
  let module F = Workload.Families in
  List.map
    (fun n -> ("fortran_fixed", n, 0, fun () -> F.fortran_fixed ~seed:1 ~n))
    [ 256; 512; 1024; 2048 ]
  @ List.map
      (fun n -> ("fortran_style", n, 0, fun () -> F.fortran_style ~seed:1 ~n))
      [ 256; 512; 1024; 2048 ]
  @ List.map
      (fun n -> ("pascal_style", n, 4, fun () -> F.pascal_style ~seed:1 ~n ~depth:4))
      [ 128; 256; 512 ]
  @ List.map
      (fun n -> ("ptr_funnel", n, 0, fun () -> F.ptr_funnel n))
      [ 100; 200; 400; 800; 1600 ]

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let word_ops = Obs.Metric.counter "bitvec.word_ops"

let span_of root name =
  match Obs.Span.find root name with
  | Some s -> s
  | None -> failwith ("bench_summary: no span " ^ name)

let measure (family, n, depth, build) =
  let prog = build () in
  let last = ref None in
  let roots =
    List.init reps (fun _ ->
        Gc.compact ();
        let a, root = Obs.Span.collect "run" (fun () -> A.run prog) in
        last := Some a;
        root)
  in
  let a = Option.get !last and root = List.hd (List.rev roots) in
  let span_ms name =
    median (List.map (fun r -> (span_of r name).Obs.Span.elapsed *. 1e3) roots)
  in
  let alias_ms = span_ms "alias" and summary_ms = span_ms "summary" in
  let alias_span = span_of root "alias" and summary_span = span_of root "summary" in
  let times = ref [] and words = ref [] in
  let query f sid =
    let snap = Obs.Metric.snapshot () in
    ignore (f a sid);
    words := float_of_int (Obs.Metric.value_since ~since:snap word_ops) :: !words;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to query_reps do
      ignore (f a sid)
    done;
    times := ((Unix.gettimeofday () -. t0) /. float_of_int query_reps *. 1e6) :: !times
  in
  Ir.Prog.iter_sites prog (fun s ->
      query A.mod_of_site s.Ir.Prog.sid;
      query A.use_of_site s.Ir.Prog.sid);
  let row =
    [
      ("family", Obs.Json.String family);
      ("n", Obs.Json.Int n);
      ("depth", Obs.Json.Int depth);
      ("procs", Obs.Json.Int (Ir.Prog.n_procs prog));
      ("sites", Obs.Json.Int (Ir.Prog.n_sites prog));
      ("alias_ms", Obs.Json.Float alias_ms);
      ("pair_visits", Obs.Json.Int (Obs.Span.metric alias_span "alias.pair_visits"));
      ("pairs", Obs.Json.Int (Core.Alias.total_pairs a.A.alias));
      ("slice_reads", Obs.Json.Int (Obs.Span.metric alias_span "alias.slice_reads"));
      ("slice_sorts", Obs.Json.Int (Obs.Span.metric alias_span "alias.slice_sorts"));
      ("binding_cells", Obs.Json.Int (Obs.Span.metric alias_span "alias.binding_cells"));
      ("summary_make_ms", Obs.Json.Float summary_ms);
      ("summary_make_word_ops", Obs.Json.Int (Obs.Span.metric summary_span "bitvec.word_ops"));
      ("queries", Obs.Json.Int (List.length !times));
      ("query_median_us", Obs.Json.Float (median !times));
      ("query_median_word_ops", Obs.Json.Float (median !words));
      ( "query_total_word_ops",
        Obs.Json.Int (int_of_float (List.fold_left ( +. ) 0. !words)) );
    ]
  in
  Printf.printf
    "   %-13s n=%4d | alias %8.2f ms visits %8d pairs %7d sorted %5d of %5d \
     slices cells %6d | make %7.2f ms | query %6.2f us %6.0f words\n\
     %!"
    family n alias_ms
    (Obs.Span.metric alias_span "alias.pair_visits")
    (Core.Alias.total_pairs a.A.alias)
    (Obs.Span.metric alias_span "alias.slice_sorts")
    (Obs.Span.metric alias_span "alias.slice_reads")
    (Obs.Span.metric alias_span "alias.binding_cells")
    summary_ms (median !times) (median !words);
  Obs.Json.Obj row

let () =
  Printf.printf
    "== section-5 alias closure and per-site MOD/USE query (median of %d runs; \
     queries x%d) ==\n"
    reps query_reps;
  let rows = List.map measure ladder in
  Harness.write_json "BENCH_summary.json"
    [
      ("experiment", Obs.Json.String "summary");
      ( "claim",
        Obs.Json.String
          "a per-site MOD/USE query copies the callee's shared GMOD \\ LOCAL \
           vector (eq. 8, computed once per procedure by Summary.make) and \
           closes it over the partner rows its set hits, so its word ops \
           follow the answer rather than the callee's GMOD; the alias \
           closure keeps its pair visits and pairs, and a site re-sorts its \
           caller's log slice only when an earlier site of that caller did \
           not already sort the same one (slice_reads - slice_sorts hits); \
           a dereference actual binds one interned cell set, so the \
           projection cells the closure reads (binding_cells) follow the \
           pairs it produces, not sites x cells" );
      ( "workload",
        Obs.Json.String
          "fortran_fixed / fortran_style seed 1, pascal_style seed 1 depth 4, \
           ptr_funnel; Analyze.run spans, then every site's mod_of_site and \
           use_of_site" );
      ("rows", Obs.Json.List rows);
    ]
