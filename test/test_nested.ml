(* Multi-level nesting (§4 end): the two multi-level implementations,
   their equivalence with the chaotic-iteration oracle, the reduction
   to plain Figure 2 at dP = 1, and the counterexample showing plain
   Figure 2 is wrong for dP > 1. *)

let solve_all prog =
  let p = Helpers.pipeline prog in
  let oracle =
    Baseline.Iterative.gmod p.Helpers.info p.Helpers.call
      ~imod_plus:p.Helpers.imod_plus
  in
  let plain = Core.Gmod.solve p.Helpers.info p.Helpers.call ~imod_plus:p.Helpers.imod_plus in
  let one_pass =
    Core.Gmod_nested.solve p.Helpers.info p.Helpers.call
      ~imod_plus:p.Helpers.imod_plus
  in
  let by_levels =
    Core.Gmod_nested.solve_by_levels p.Helpers.info p.Helpers.call
      ~imod_plus:p.Helpers.imod_plus
  in
  (p, oracle, plain, one_pass, by_levels)

let test_textbook () =
  let prog = Workload.Families.nested_textbook () in
  let _, oracle, _, one_pass, by_levels = solve_all prog in
  Alcotest.(check bool) "one-pass = oracle" true
    (Helpers.gmod_arrays_equal one_pass oracle);
  Alcotest.(check bool) "by-levels = oracle" true
    (Helpers.gmod_arrays_equal by_levels oracle);
  (* Specific content: v (outer's local) is in GMOD of mid and inner
     but helper only touches its own formal. *)
  Helpers.check_var_set prog "GMOD(inner)"
    [ "g0"; "outer.v"; "inner.r" ]
    oracle.(Helpers.proc_id prog "inner");
  Helpers.check_var_set prog "GMOD(mid)"
    [ "g0"; "outer.v"; "mid.q" ]
    oracle.(Helpers.proc_id prog "mid");
  Helpers.check_var_set prog "GMOD(helper)" [ "helper.h" ]
    oracle.(Helpers.proc_id prog "helper");
  Helpers.check_var_set prog "GMOD(outer)"
    [ "g0"; "outer.v"; "outer.p" ]
    oracle.(Helpers.proc_id prog "outer")

let counterexample_src =
  {|program demo;
var g : int;
procedure outer();
var v : int;
  procedure helper(var x : int);
  begin
    v := v + 1;
    x := 0;
    call outer();
  end;
  procedure walker();
  begin
    call helper(g);
  end;
begin
  call helper(g);
  call walker();
end;
begin
  call outer();
end.|}

let test_plain_figure2_is_wrong_nested () =
  let prog = Helpers.compile counterexample_src in
  let _, oracle, plain, one_pass, by_levels = solve_all prog in
  let walker = Helpers.proc_id prog "walker" in
  Helpers.check_var_set prog "oracle GMOD(walker)" [ "g"; "outer.v" ] oracle.(walker);
  Alcotest.(check bool) "plain misses outer.v" false
    (Bitvec.get plain.(walker) (Helpers.var_id prog "outer.v"));
  Alcotest.(check bool) "one-pass correct" true
    (Helpers.gmod_arrays_equal one_pass oracle);
  Alcotest.(check bool) "by-levels correct" true
    (Helpers.gmod_arrays_equal by_levels oracle)

let prop_flat_reduction seed =
  (* dP = 1: both multi-level variants coincide with plain Figure 2. *)
  let prog = Helpers.flat_of_seed seed in
  let _, _, plain, one_pass, by_levels = solve_all prog in
  Helpers.gmod_arrays_equal plain one_pass
  && Helpers.gmod_arrays_equal plain by_levels

let prop_one_pass_equals_oracle seed =
  let prog = Helpers.nested_of_seed seed in
  let _, oracle, _, one_pass, _ = solve_all prog in
  Helpers.gmod_arrays_equal one_pass oracle

let prop_by_levels_equals_oracle seed =
  let prog = Helpers.nested_of_seed seed in
  let _, oracle, _, _, by_levels = solve_all prog in
  Helpers.gmod_arrays_equal by_levels oracle

let prop_deep_nesting seed =
  (* Deeper nesting, smaller programs: stress dP. *)
  let prog = Helpers.nested_of_seed ~n:25 ~depth:7 seed in
  let _, oracle, _, one_pass, by_levels = solve_all prog in
  Helpers.gmod_arrays_equal one_pass oracle
  && Helpers.gmod_arrays_equal by_levels oracle

let prop_plain_is_subset_on_nested seed =
  (* Plain Figure 2 never overapproximates (its unions are all
     sanctioned by equation (4)); it can only miss. *)
  let prog = Helpers.nested_of_seed seed in
  let _, oracle, plain, _, _ = solve_all prog in
  Array.for_all2 (fun p o -> Bitvec.subset p o) plain oracle

let prop_use_side_nested seed =
  (* The USE chain through the multi-level solver also matches the
     iterative oracle. *)
  let prog = Helpers.nested_of_seed seed in
  let info = Ir.Info.make prog in
  let call = Callgraph.Call.build prog in
  let binding = Callgraph.Binding.build info in
  let iuse = Frontend.Local.iuse info in
  let ruse = Core.Rmod.solve binding ~imod:iuse in
  let iuse_plus = Core.Imod_plus.compute info ~rmod:ruse ~imod:iuse in
  let oracle = Baseline.Iterative.gmod info call ~imod_plus:iuse_plus in
  let one_pass = Core.Gmod_nested.solve info call ~imod_plus:iuse_plus in
  Helpers.gmod_arrays_equal one_pass oracle

(* --- region = batch ---

   [solve_region] is the batch solve confined to a cone over cached
   values outside it.  One instance serves flat pointer-free programs,
   flat pointer programs (whose dereferences can name another
   procedure's local, which only the level masks strip) and nested
   ones, so the property runs on all three, pointer programs under both
   points-to tiers.  With every procedure seeded the cone is the whole
   graph; with a random subset whose seeds changed (each swapped for
   another procedure's) the cached solution of the old seeds stands
   outside the cone.  Both must equal the batch solve, GMOD and GUSE
   alike. *)

let region_equals_batch ~salt ?(tiers = [ Ptsto.Steensgaard ]) prog =
  let rand = Random.State.make [| salt; 0x7265 |] in
  let n = Ir.Prog.n_procs prog in
  List.for_all
    (fun tier ->
      let a = Core.Analyze.run ~ptsto:tier prog in
      let info = a.Core.Analyze.info and call = a.Core.Analyze.call in
      List.for_all
        (fun seed ->
          let batch = Core.Gmod_nested.solve info call ~imod_plus:seed in
          let empty = Array.map (fun v -> Bitvec.create (Bitvec.length v)) seed in
          let every, _, _ =
            Core.Gmod_nested.solve_region info call ~seed ~seeds:(List.init n Fun.id)
              ~cached:empty
          in
          let changed = List.filter (fun _ -> Random.State.bool rand) (List.init n Fun.id) in
          let seed' =
            Array.mapi
              (fun p v -> if List.mem p changed then seed.(Random.State.int rand n) else v)
              seed
          in
          let region, _, _ =
            Core.Gmod_nested.solve_region info call ~seed:seed' ~seeds:changed ~cached:batch
          in
          Helpers.gmod_arrays_equal every batch
          && Helpers.gmod_arrays_equal region
               (Core.Gmod_nested.solve info call ~imod_plus:seed'))
        [ a.Core.Analyze.imod_plus; a.Core.Analyze.iuse_plus ])
    tiers

let prop_region_flat seed =
  let prog = Helpers.flat_of_seed seed in
  Ir.Prog.max_level prog <= 1
  && (not (Ptsto.has_pointers prog))
  && region_equals_batch ~salt:seed prog

let prop_region_pointer seed =
  let prog = Helpers.ptr_prog_of_seed seed in
  Ir.Prog.max_level prog <= 1
  && Ptsto.has_pointers prog
  && region_equals_batch ~salt:seed ~tiers:[ Ptsto.Steensgaard; Ptsto.Andersen ] prog

let prop_region_nested seed =
  let prog = Helpers.nested_of_seed seed in
  Ir.Prog.max_level prog > 1 && region_equals_batch ~salt:seed prog

(* --- bit-identity golden ---

   Digests of what the single-pass multi-level [findgmod] computes over
   a fixed corpus: per program and per side (GMOD from IMOD+, GUSE from
   IUSE+), the [bitvec.word_ops] / [bitvec.vector_ops] it spends and
   the resulting sets.  Any change to what the pass computes, or to how
   many bit-vector operations it spends, changes a digest.  The corpus
   has self-recursive calls: Figure 2 folds a [v -> v] edge, the
   multi-level pass does not, and the digests pin that difference. *)

let golden_programs =
  let module F = Workload.Families in
  let file name =
    ( name,
      fun () ->
        let path = Filename.concat "../programs" name in
        Frontend.Sema.compile_exn ~file:path
          (In_channel.with_open_bin path In_channel.input_all) )
  in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun depth ->
          List.map
            (fun n ->
              ( Printf.sprintf "pascal_style s%d d%d n%d" seed depth n,
                fun () -> F.pascal_style ~seed ~n ~depth ))
            [ 16; 64; 256 ])
        [ 2; 3; 4; 6 ])
    [ 1; 2; 3; 4; 5 ]
  @ List.init 40 (fun seed ->
        ( Printf.sprintf "gen %d" seed,
          fun () ->
            Workload.Gen.generate
              (Random.State.make [| seed; 0x6e6e |])
              { Workload.Gen.default with n_procs = 24; max_depth = 4 } ))
  @ [ ("nested_textbook", F.nested_textbook); file "report.mp" ]

let golden_text prog =
  let info = Ir.Info.make prog in
  let call = Callgraph.Call.build prog in
  let binding = Callgraph.Binding.build info in
  let plus imod =
    Core.Imod_plus.compute info ~rmod:(Core.Rmod.solve binding ~imod) ~imod
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (side, seed) ->
      let since = Obs.Metric.snapshot () in
      let sets = Core.Gmod_nested.solve info call ~imod_plus:seed in
      let d = Obs.Metric.delta ~since in
      Printf.bprintf b "%s word_ops %d vector_ops %d\n" side
        (List.assoc "bitvec.word_ops" d)
        (List.assoc "bitvec.vector_ops" d);
      Array.iteri
        (fun pid v ->
          Printf.bprintf b "p%d [%s]\n" pid
            (String.concat "," (List.map string_of_int (Bitvec.to_list v))))
        sets)
    [
      ("gmod", plus (Frontend.Local.imod info));
      ("guse", plus (Frontend.Local.iuse info));
    ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_digests =
  [
    ("pascal_style s1 d2 n16", "f2f8c0535a2b5fe0afc7333ec8c51690");
    ("pascal_style s1 d2 n64", "b2003d66860c58c5412e935f2fdf0e0a");
    ("pascal_style s1 d2 n256", "a0b1779f7599852bb236a4df0d230522");
    ("pascal_style s1 d3 n16", "5ae70dace07d9a004e0adcca6cacfd61");
    ("pascal_style s1 d3 n64", "f1733ec31da8860b2f2b4790dc8f75e7");
    ("pascal_style s1 d3 n256", "2b9fd2090a278cea804b7c242d716497");
    ("pascal_style s1 d4 n16", "eabe33f322d1a63afb7891427433859c");
    ("pascal_style s1 d4 n64", "755151419142c9b1367d96dee7f14011");
    ("pascal_style s1 d4 n256", "fb327d0cfc8a5e806331fd3ec8de5cef");
    ("pascal_style s1 d6 n16", "f6730a0444bb97bede7102f7d90cc47a");
    ("pascal_style s1 d6 n64", "a6f362ead38a71003fe58e9ab2947430");
    ("pascal_style s1 d6 n256", "14745db2891490f08cf732b4abff8ca1");
    ("pascal_style s2 d2 n16", "b9029a62b6329576cf27e3dd16a6804a");
    ("pascal_style s2 d2 n64", "55cf12101a00bd1a364fed7344a8a459");
    ("pascal_style s2 d2 n256", "e99f1c34e314d1066976a865abb710c5");
    ("pascal_style s2 d3 n16", "9464d520ec7d38c01109a34063c6bdfa");
    ("pascal_style s2 d3 n64", "131a7323465daf419919e2012f2247d9");
    ("pascal_style s2 d3 n256", "c6705fb327f4b98e35e1e4fa85d5da17");
    ("pascal_style s2 d4 n16", "6d8e59d107c877feec3a19b298682230");
    ("pascal_style s2 d4 n64", "11a1e5867f02cb400a31775469e38f5d");
    ("pascal_style s2 d4 n256", "d854632993085312197b1db63d43248f");
    ("pascal_style s2 d6 n16", "7822bbd5a629690041dec0c8d9c61de7");
    ("pascal_style s2 d6 n64", "5ebe8bf58911ba739052bb1e01779010");
    ("pascal_style s2 d6 n256", "f611ad5488d5f92eb0e5b35f8f9219b4");
    ("pascal_style s3 d2 n16", "f1b349eb96ae7a81131167781a563e48");
    ("pascal_style s3 d2 n64", "5b9a302c9ced75c99e292be0a1d8b081");
    ("pascal_style s3 d2 n256", "17d9e816a2f890e276725eb784a2b6e4");
    ("pascal_style s3 d3 n16", "97f92a13fa5021d0f600aeaff13dfdb2");
    ("pascal_style s3 d3 n64", "28696d79c7755bdb36ea9cce5be81985");
    ("pascal_style s3 d3 n256", "e3bffa8ade2395dfb469fb4f0d3f16cd");
    ("pascal_style s3 d4 n16", "ea96e7dece573b104f0234c8653e7914");
    ("pascal_style s3 d4 n64", "e08fc240524f554e0ae8b41529c91c64");
    ("pascal_style s3 d4 n256", "6fc695a6938dc1ed7256f87fe4c12043");
    ("pascal_style s3 d6 n16", "0adfca4e7736c88526afb057d7f2c666");
    ("pascal_style s3 d6 n64", "8c03b02984d838bfc5010ab7639b68f4");
    ("pascal_style s3 d6 n256", "7a3cba0cd9f295a556c515945b77b25a");
    ("pascal_style s4 d2 n16", "4cc569b5b381ba7216a1429cf2aeb4eb");
    ("pascal_style s4 d2 n64", "58572eb72fbef6677e573b8312683b93");
    ("pascal_style s4 d2 n256", "615b382b009871d59dbd430253e56dc4");
    ("pascal_style s4 d3 n16", "e8b6d6144a6ab53761c6fc7e69517f27");
    ("pascal_style s4 d3 n64", "de6b43c6a0f6bcb65fdd8f7be9937d7b");
    ("pascal_style s4 d3 n256", "748bcd63197c60f6699610cf6d1f2efa");
    ("pascal_style s4 d4 n16", "c850471c9cb43f1ff774c216667dd0aa");
    ("pascal_style s4 d4 n64", "761b106a4deadb1ca3784543a888af3c");
    ("pascal_style s4 d4 n256", "feb8102cddcfc681219c498348e19562");
    ("pascal_style s4 d6 n16", "45fe6728f9169c48ed3b009a5d2687d2");
    ("pascal_style s4 d6 n64", "9c6de647cea198c86fb8611b252f4a3e");
    ("pascal_style s4 d6 n256", "71e975515ac0ee263cbf0c3b20b46fd0");
    ("pascal_style s5 d2 n16", "16d70ea064c3b4ec702f2aa1cef21424");
    ("pascal_style s5 d2 n64", "682adf76f86d116596b1de732e11a870");
    ("pascal_style s5 d2 n256", "79e9c706979838d5b156324546256e0e");
    ("pascal_style s5 d3 n16", "623f8ea7a00f20f68c4f6df34ac34697");
    ("pascal_style s5 d3 n64", "93ee7b38c71f267c1381ad3a4a35dcf0");
    ("pascal_style s5 d3 n256", "3b2ba611dc90f11e727eea65b6605038");
    ("pascal_style s5 d4 n16", "fe39643aadf101533ffdd9395e59840e");
    ("pascal_style s5 d4 n64", "e00a071a9cd9aa462ca2d02fe4432192");
    ("pascal_style s5 d4 n256", "dddc1433baa62122e69f74d3c1c094d2");
    ("pascal_style s5 d6 n16", "37d1906cb61ddd0c7b42005eb24a4157");
    ("pascal_style s5 d6 n64", "6b0340e946bf141cc6ffe17b7b28ffe9");
    ("pascal_style s5 d6 n256", "d4f51b1c03d1fc49aaa8d1ead758a47b");
    ("gen 0", "d7a46176b02f488d42b1b9df8819af1d");
    ("gen 1", "b31582b51a9508a6d2fdfceb9b08f30e");
    ("gen 2", "9931e8b6e2e3351b80d5e7d91f4f73b3");
    ("gen 3", "30d84833efd9436a380767704824c387");
    ("gen 4", "b1db08007441c0c53d4068ba70ece873");
    ("gen 5", "f525f3b7f071db144cfc9adeb3a03a6b");
    ("gen 6", "06ce1259af5a6fb65c1c1fa10efca1c2");
    ("gen 7", "75d0895fa033d51100cb0bfc287d0702");
    ("gen 8", "87e214f300806f5336eceb62a341546e");
    ("gen 9", "23813608e571a495d76f2bceb52d8c24");
    ("gen 10", "08e5c73f50a875107d66230d85ff4529");
    ("gen 11", "805ab6fdc6fb25276a7272e718a341d5");
    ("gen 12", "e9cd7ef7891fc4f2148dda5e0ee977cf");
    ("gen 13", "e831af8d48ecf81e22edc375e092c935");
    ("gen 14", "e8a008c4e7dd8fe331dda3ef767496de");
    ("gen 15", "3054a69906ffce89cfc324d0b4928b27");
    ("gen 16", "75440cfd1eeb95f6d0a05b714cc90c61");
    ("gen 17", "be68507a639d2ccd7b4d8e4d87088701");
    ("gen 18", "9f66a39fc4614c916802076b44fa8aae");
    ("gen 19", "198dc353237c20e5e4c17b1a36ca62da");
    ("gen 20", "401a267e15876cf49d8a7174e80a1552");
    ("gen 21", "632bf3e710a3266f1190d0aa5438b953");
    ("gen 22", "0ed07a4886a91146fcda468b806b69a2");
    ("gen 23", "997de86975bd5d73a1cfc0b9dd89196a");
    ("gen 24", "3c33937d46bf8091af4a5fdd663bb47f");
    ("gen 25", "cb22083c3024391258b0c36553ca159f");
    ("gen 26", "41864e77275d8fce39501d6dcc963178");
    ("gen 27", "3944b9f5a7f401fe1ea8eb1df31d600d");
    ("gen 28", "7832098612a5fe9206120ab9ae6df8b5");
    ("gen 29", "1360c1bd241543a0cdf90a587b1f1697");
    ("gen 30", "f8f54d7d970b5890e15d29c1fa77d573");
    ("gen 31", "c6e97cf5d66e8bcfdf367e24750d4ba1");
    ("gen 32", "17e88c36d6f95933536d6e768e416658");
    ("gen 33", "9ec2f4789dfebfdc7ac3d08072f795eb");
    ("gen 34", "e470a4a9f5a55ed42073a1f9dec862a0");
    ("gen 35", "27d079e5360f5ce547283fc4311728df");
    ("gen 36", "738f236c2b4f17a7969eef851ea3b3b9");
    ("gen 37", "4d80828a44a30ac62a3b6e66075eaf2d");
    ("gen 38", "beb86c1d9787848eee723b296f551b60");
    ("gen 39", "69c69985dfa1f20e3b0a64c87978e0da");
    ("nested_textbook", "20ca59b29f7622af1ee10757b066f80e");
    ("report.mp", "fce1c8fe57975efbccd5d7fc9a3d7ab2");
  ]

let test_golden () =
  let self_calls = ref 0 in
  List.iter
    (fun (name, make) ->
      let prog = make () in
      Alcotest.(check bool) (name ^ " is nested") true (Ir.Prog.max_level prog > 1);
      if Helpers.self_recursive prog then incr self_calls;
      Alcotest.(check string) name (List.assoc name golden_digests)
        (golden_text prog))
    golden_programs;
  Alcotest.(check bool) "corpus has self-recursive calls" true (!self_calls > 0)

let () =
  Helpers.run "nested"
    [
      ( "fixed cases",
        [
          Alcotest.test_case "textbook nesting" `Quick test_textbook;
          Alcotest.test_case "plain Figure 2 counterexample" `Quick
            test_plain_figure2_is_wrong_nested;
        ] );
      ( "equivalence",
        [
          Helpers.qtest "dP=1 reduces to Figure 2" Helpers.arb_flat_prog
            prop_flat_reduction;
          Helpers.qtest "one-pass = oracle (nested)" Helpers.arb_nested_prog
            prop_one_pass_equals_oracle;
          Helpers.qtest "by-levels = oracle (nested)" Helpers.arb_nested_prog
            prop_by_levels_equals_oracle;
          Helpers.qtest ~count:60 "depth-7 stress" Helpers.arb_nested_prog
            prop_deep_nesting;
          Helpers.qtest "plain is a sound subset" Helpers.arb_nested_prog
            prop_plain_is_subset_on_nested;
          Helpers.qtest ~count:60 "USE side matches oracle" Helpers.arb_nested_prog
            prop_use_side_nested;
        ] );
      ( "region",
        [
          Helpers.qtest ~count:60 "region = batch (flat)" Helpers.arb_flat_prog
            prop_region_flat;
          Helpers.qtest ~count:60 "region = batch (pointer, both tiers)"
            Helpers.arb_ptr_prog prop_region_pointer;
          Helpers.qtest ~count:60 "region = batch (nested)" Helpers.arb_nested_prog
            prop_region_nested;
        ] );
      ( "golden",
        [ Alcotest.test_case "single-pass digests" `Quick test_golden ] );
    ]
