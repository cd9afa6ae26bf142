(* Set-bit enumeration cost: nanoseconds per member of the kernels that
   read a solved set out of a [Bitvec] — [iter] (behind [fold],
   [exists], [choose] and every client walk), [to_list] (every query
   answer and listing) and demotion (a dense [inter_into] whose
   survivors are fewer than the words of their occupied prefix and are
   collected into the small form).

   The claim being measured: enumeration costs O(1) per member plus
   O(1) per occupied word, whatever bit of its word a member sits at.
   Each (op, n, pattern) row is a dense vector of [n] bits whose
   members are bit 0 of every word, bit 62 of every word (the sign bit
   of a 63-bit OCaml int), a seeded random 1/8 or 1/2 of the bits, or
   all of them.  A demotion row restores the dense destination with a
   [blit] and intersects it with a dense source holding half as many
   members of the pattern as the vector has words, evenly spaced,
   so the survivors span the vector and the small form is the cheaper
   one; its time is per surviving member and includes the restore and
   the word scan.  [bit62_over_bit0] divides the [iter] figures of the two
   single-bit patterns at each n: a kernel whose cost depends on the
   bit position shows it there.

   Each figure is the best of [samples] timed batches of about
   [target_members] members each.  [before] in BENCH_bitvec.json holds
   rows this harness measured on the earlier kernel (a shift loop that
   moved the isolated low bit one place per step); reruns keep every
   key they do not write.

     dune exec bench/bench_bitvec.exe        # writes BENCH_bitvec.json *)

module B = Bitvec

let samples = 7
let target_members = 2_000_000
let sizes = [ 4096; 65536 ]
let word = Sys.int_size

let patterns =
  let seeded p n =
    let st = Random.State.make [| 7 |] in
    List.filter (fun _ -> Random.State.float st 1.0 < p) (List.init n Fun.id)
  in
  [
    ("bit0", fun n -> List.filter (fun i -> i mod word = 0) (List.init n Fun.id));
    ("bit62", fun n -> List.filter (fun i -> i mod word = word - 1) (List.init n Fun.id));
    ("density_1/8", seeded 0.125);
    ("density_1/2", seeded 0.5);
    ("full", fun n -> List.init n Fun.id);
  ]

(* A vector of [n] bits holding [members], in the dense form whatever
   its cardinality: built with the hybrid switch off. *)
let dense_of n members =
  let saved = B.hybrid_enabled () in
  B.set_hybrid false;
  let v = B.of_list n members in
  B.set_hybrid saved;
  v

(* Best per-member nanoseconds of [samples] batches, each [reps] calls
   of [f] that enumerate [per_call] members between them. *)
let ns_per_member ~per_call f =
  let reps = max 1 (target_members / max 1 per_call) in
  let best = ref infinity in
  for _ = 1 to samples do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  1e9 *. !best /. float_of_int (reps * per_call)

let iter_ns v members =
  let sum = ref 0 in
  ns_per_member ~per_call:members (fun () -> B.iter (fun i -> sum := !sum + i) v)

let to_list_ns v members =
  ns_per_member ~per_call:members (fun () -> ignore (Sys.opaque_identity (B.to_list v)))

(* [keep] members spread evenly over [members]. *)
let spread keep members =
  let a = Array.of_list members in
  let len = Array.length a in
  List.init (min keep len) (fun k -> a.(k * len / min keep len))

let demote_ns n members survivors =
  let master = dense_of n members in
  let src = dense_of n survivors in
  let dst = dense_of n members in
  ns_per_member ~per_call:(List.length survivors) (fun () ->
      B.blit ~src:master ~dst;
      ignore (B.inter_into ~src ~dst);
      if B.repr_kind dst <> `Small then failwith "bench_bitvec: inter_into did not demote")

let row op n pattern members ns =
  Printf.printf "   %-8s n=%-6d %-12s %6d members  %7.2f ns/member\n%!" op n pattern members
    ns;
  Obs.Json.Obj
    [
      ("op", Obs.Json.String op);
      ("n", Obs.Json.Int n);
      ("pattern", Obs.Json.String pattern);
      ("members", Obs.Json.Int members);
      ("ns_per_member", Obs.Json.Float ns);
    ]

let measure n (pattern, make) =
  let members = make n in
  let card = List.length members in
  let v = dense_of n members in
  let survivors = spread ((n + word - 1) / word / 2) members in
  let iter = iter_ns v card in
  let iter_row = row "iter" n pattern card iter in
  let to_list_row = row "to_list" n pattern card (to_list_ns v card) in
  let demote_row =
    row "demote" n pattern (List.length survivors) (demote_ns n members survivors)
  in
  ((pattern, iter), [ iter_row; to_list_row; demote_row ])

let () =
  Printf.printf "== Bitvec set-bit enumeration (best of %d batches, wall clock) ==\n" samples;
  let per_size =
    List.map
      (fun n ->
        let measured = List.map (measure n) patterns in
        let iters = List.map fst measured in
        let ratio = List.assoc "bit62" iters /. List.assoc "bit0" iters in
        Printf.printf "   iter n=%d bit62/bit0 = %.2f\n%!" n ratio;
        (List.concat_map snd measured, (string_of_int n, Obs.Json.Float ratio)))
      sizes
  in
  Harness.write_json "BENCH_bitvec.json"
    [
      ("experiment", Obs.Json.String "bitvec_enumeration");
      ( "claim",
        Obs.Json.String
          "set-bit enumeration costs O(1) per member plus O(1) per occupied \
           word: iter, to_list and demotion take about the same ns per member \
           whatever bit of its word a member sits at" );
      ( "workload",
        Obs.Json.String
          "dense vectors of n = 4096 and 65536 bits; members at bit 0 of each \
           word, bit 62 of each word, seeded density 1/8 and 1/2, full; best of \
           7 batches of about 2M members" );
      ("rows", Obs.Json.List (List.concat_map fst per_size));
      ("bit62_over_bit0", Obs.Json.Obj (List.map snd per_size));
    ]
