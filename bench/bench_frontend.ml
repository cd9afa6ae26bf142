(* Front-end cost: source text to a resolved program and its Locs table.

   Per (family, size): the rendered source's bytes and tokens, the
   time of [Sema.compile_with_locs] and of its ["frontend.parse"] and
   ["frontend.resolve"] spans (processor time on {!Obs.Clock}, best of
   [reps] runs; the runs go round the whole ladder once per repetition,
   so host noise hits every row alike), and the minor-heap words one
   compile allocates, per source byte.  [compile_x] is the row's
   compile time over the previous (half-size) row of its family: 2.0
   per doubling is linear.

   The ladder stops at 8192 procedures, so that the earlier front end
   the [before] rows measure still fits a small host's memory.

   [before] in BENCH_frontend.json holds rows this harness measured on
   the earlier front end (a token list built ahead of the parser,
   [List.nth] callee lookup in resolve); reruns keep every key they do
   not write.

     dune exec bench/bench_frontend.exe       # writes BENCH_frontend.json *)

let reps = 5
let sizes = [ 512; 1024; 2048; 4096; 8192 ]

let ladder =
  let module F = Workload.Families in
  List.concat_map
    (fun (family, depth, build) ->
      List.map (fun n -> (family, n, depth, fun () -> build n)) sizes)
    [
      ("fortran_fixed", 0, fun n -> F.fortran_fixed ~seed:1 ~n);
      ("dag_style", 0, fun n -> F.dag_style ~seed:1 ~n);
      ("pascal_style", 4, fun n -> F.pascal_style ~seed:1 ~n ~depth:4);
    ]

let span_ms root name =
  match Obs.Span.find root name with
  | Some s -> s.Obs.Span.elapsed *. 1e3
  | None -> failwith ("bench_frontend: no span " ^ name)

let compile src =
  match Frontend.Sema.compile_with_locs ~file:"bench" src with
  | Ok r -> r
  | Error _ -> failwith "bench_frontend: generated source does not compile"

type best = {
  mutable parse : float;
  mutable resolve : float;
  mutable total : float;
}

let () =
  Printf.printf "== front end: source text to Ir.Prog + Locs (best of %d) ==\n%!" reps;
  let sources =
    List.map (fun (family, n, depth, build) -> (family, n, depth, Ir.Pp.to_string (build ()))) ladder
  in
  let bests = List.map (fun _ -> { parse = infinity; resolve = infinity; total = infinity }) sources in
  for _ = 1 to reps do
    List.iter2
      (fun (_, _, _, src) b ->
        Gc.compact ();
        let _, root = Obs.Span.collect "bench" (fun () -> ignore (compile src)) in
        b.parse <- Float.min b.parse (span_ms root "frontend.parse");
        b.resolve <- Float.min b.resolve (span_ms root "frontend.resolve");
        b.total <- Float.min b.total (span_ms root "frontend.compile"))
      sources bests
  done;
  let prev = Hashtbl.create 4 in
  let rows =
    List.map2
      (fun (family, n, depth, src) b ->
        let bytes = String.length src in
        let tokens = List.length (Frontend.Lexer.tokenize src) in
        let w0 = Gc.minor_words () in
        let prog, _ = compile src in
        let words = Gc.minor_words () -. w0 in
        let growth =
          match Hashtbl.find_opt prev family with
          | Some t -> b.total /. t
          | None -> Float.nan
        in
        Hashtbl.replace prev family b.total;
        Printf.printf
          "   %-13s n=%5d | %8d bytes %7d tokens | parse %8.2f resolve %8.2f \
           compile %8.2f ms (%s) | %5.2f minor words/byte\n\
           %!"
          family n bytes tokens b.parse b.resolve b.total
          (if Float.is_nan growth then "  -  " else Printf.sprintf "x%.2f" growth)
          (words /. float_of_int bytes);
        Obs.Json.Obj
          ([
             ("family", Obs.Json.String family);
             ("n", Obs.Json.Int n);
             ("depth", Obs.Json.Int depth);
             ("procs", Obs.Json.Int (Ir.Prog.n_procs prog));
             ("sites", Obs.Json.Int (Ir.Prog.n_sites prog));
             ("bytes", Obs.Json.Int bytes);
             ("tokens", Obs.Json.Int tokens);
             ("parse_ms", Obs.Json.Float b.parse);
             ("resolve_ms", Obs.Json.Float b.resolve);
             ("compile_ms", Obs.Json.Float b.total);
           ]
          @ (if Float.is_nan growth then [] else [ ("compile_x", Obs.Json.Float growth) ])
          @ [
              ("minor_words", Obs.Json.Int (int_of_float words));
              ("minor_words_per_byte", Obs.Json.Float (words /. float_of_int bytes));
            ]))
      sources bests
  in
  Harness.write_json "BENCH_frontend.json"
    [
      ("experiment", Obs.Json.String "frontend");
      ( "claim",
        Obs.Json.String
          "the front end lexes on demand without allocating per character \
           and resolves each call's callee in O(1), so compile time grows \
           near-linearly in program size and minor-heap words per source \
           byte stay flat" );
      ( "workload",
        Obs.Json.String
          "fortran_fixed, dag_style, pascal_style depth 4, seed 1, rendered \
           by Ir.Pp; Sema.compile_with_locs spans, best of 5 interleaved \
           runs; minor words of one compile" );
      ("rows", Obs.Json.List rows);
    ]
