(* Points-to tier cost and precision on the pointer workload families.

   Two numbers per (family, size, tier): the solver's own wall time
   (constraint extraction + unification or inclusion fixpoint +
   storage closure) and the §5 alias-pair count the projection
   induces.  The claim: Andersen's projection is pointwise contained
   in Steensgaard's — strictly smaller on the funnel family (n vs 2n
   pairs, the precision unification gives up by merging the funnel) —
   and neither tier's raw solve dominates.  The storage closure shared
   by both tiers is one pass over the condensed bound-to graph, so the
   deep by-ref chains (ptr_chain) grow about linearly; the steepest
   rows are Andersen's own inclusion fixpoint on ptr_heap.

     dune exec bench/bench_ptsto.exe        # writes BENCH_ptsto.json *)

module A = Core.Analyze

let reps = 3
let sizes = [ 50; 100; 200; 400 ]

let families =
  [
    ("ptr_chain", Workload.Families.ptr_chain);
    ("ptr_heap", Workload.Families.ptr_heap);
    ("ptr_funnel", Workload.Families.ptr_funnel);
  ]

let total_pairs t prog =
  let n = ref 0 in
  for pid = 0 to Ir.Prog.n_procs prog - 1 do
    n := !n + List.length (Core.Alias.pairs t.A.alias pid)
  done;
  !n

let tier_row prog tier =
  let solve_s = Harness.timed reps (fun () -> Ptsto.analyze ~tier prog) in
  let pt = Ptsto.analyze ~tier prog in
  let t = A.run ~ptsto:tier prog in
  let pairs = total_pairs t prog in
  (Ptsto.tier_name tier, solve_s, Ptsto.size pt, pairs)

let measure name family n =
  let prog = family n in
  let rows =
    List.map (tier_row prog) [ Ptsto.Steensgaard; Ptsto.Andersen ]
  in
  let (_, s_time, s_size, s_pairs), (_, a_time, a_size, a_pairs) =
    match rows with [ s; a ] -> (s, a) | _ -> assert false
  in
  assert (a_pairs <= s_pairs);
  Printf.printf
    "   %-10s n=%4d | steens %8.5fs size %5d pairs %5d | ander %8.5fs size \
     %5d pairs %5d\n\
     %!"
    name n s_time s_size s_pairs a_time a_size a_pairs;
  Obs.Json.Obj
    [
      ("family", Obs.Json.String name);
      ("n", Obs.Json.Int n);
      ( "tiers",
        Obs.Json.List
          (List.map
             (fun (tname, solve_s, size, pairs) ->
               Obs.Json.Obj
                 [
                   ("tier", Obs.Json.String tname);
                   ("solve_s", Obs.Json.Float solve_s);
                   ("size", Obs.Json.Int size);
                   ("alias_pairs", Obs.Json.Int pairs);
                 ])
             rows) );
    ]

let () =
  Printf.printf "== points-to solve (best of %d, wall clock) ==\n" reps;
  let rows =
    List.concat_map
      (fun (name, family) -> List.map (measure name family) sizes)
      families
  in
  let json =
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.String "ptsto");
        ( "claim",
          Obs.Json.String
            "Andersen's projection is pointwise contained in Steensgaard's: \
             strictly smaller on ptr_funnel (n vs 2n section-5 pairs), \
             identical where there is nothing to refine.  The storage \
             closure shared by both tiers is one pass over the condensed \
             bound-to graph: ptr_chain grows about 2x per doubling of the \
             chain in both tiers (the old round-robin closure grew 8x, \
             cubically).  The steepest rows left are Andersen's naive \
             inclusion fixpoint on ptr_heap, about 4x per doubling \
             (quadratic)" );
        ( "workload",
          Obs.Json.String
            "ptr_chain / ptr_heap / ptr_funnel (Workload.Families), both \
             tiers, pair counts after the section-5 closure" );
        ("rows", Obs.Json.List rows);
      ]
  in
  let oc = open_out "BENCH_ptsto.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "   (table written to BENCH_ptsto.json)\n"
