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
    ("pascal_style s1 d2 n16", "f822c5cec9b244547f916a3f4f2c9e87");
    ("pascal_style s1 d2 n64", "f98712851c96345d3c7d775d539b087b");
    ("pascal_style s1 d2 n256", "585e83e3d4de13c1e1208dab776f535d");
    ("pascal_style s1 d3 n16", "dfe915761717746d9e8eb5dd0edb2cd6");
    ("pascal_style s1 d3 n64", "0418982e7e5b0f51c7da31353d7411b2");
    ("pascal_style s1 d3 n256", "e065a794c04a5e525853fd43233ed015");
    ("pascal_style s1 d4 n16", "46c542ffb91eca5d971f85f5be6977f1");
    ("pascal_style s1 d4 n64", "977a40e6a51cf443bea44230646ee0fb");
    ("pascal_style s1 d4 n256", "3946f205b38da63428dcc6a11a03a228");
    ("pascal_style s1 d6 n16", "4cd418a451cf355666182279ad92537f");
    ("pascal_style s1 d6 n64", "7cb629644a43e608c81cf4d1e3b9ea25");
    ("pascal_style s1 d6 n256", "5aaf3c749aeb991815a1cb5769d5022d");
    ("pascal_style s2 d2 n16", "83b26fae14ebab56f53d656e7d1bb7fe");
    ("pascal_style s2 d2 n64", "efe9c2f5f6c9c2b7a21b00380274e986");
    ("pascal_style s2 d2 n256", "2c6029477cae05ea31b79b4a2542906e");
    ("pascal_style s2 d3 n16", "ce155e91d883f90810e6876db402704b");
    ("pascal_style s2 d3 n64", "8e503507c5d0ad27b53b98be3e3dc59d");
    ("pascal_style s2 d3 n256", "af2cc88363268c510838576fdc337af6");
    ("pascal_style s2 d4 n16", "66bc0c206f8a95e59a2764bf0eb0b7e1");
    ("pascal_style s2 d4 n64", "f35a66c9747b6de620d893332271f560");
    ("pascal_style s2 d4 n256", "ddb481b2dfd34e71a223a632107151df");
    ("pascal_style s2 d6 n16", "98fd7b7952ddd1a7f9cd262ef048e55e");
    ("pascal_style s2 d6 n64", "c143d7488c22c866aaba74e852a01f8e");
    ("pascal_style s2 d6 n256", "72c53a23f2a61113db7170171fe0e6e2");
    ("pascal_style s3 d2 n16", "585b652cfa8d1139c367245c906b5377");
    ("pascal_style s3 d2 n64", "7e4245b4bdb967ea1ece743c9e7be4f8");
    ("pascal_style s3 d2 n256", "a0858044a4c54cadf9c0ca617a2e3779");
    ("pascal_style s3 d3 n16", "31073ae08f14db137427a99af53c802f");
    ("pascal_style s3 d3 n64", "4364c3f37735164a1ad1cdda93f65774");
    ("pascal_style s3 d3 n256", "1ffc189844894901b798e6ad27701f0d");
    ("pascal_style s3 d4 n16", "696b139fc29108a8c14edd5f19d65cf6");
    ("pascal_style s3 d4 n64", "82ba6ee19cd7012cc570043f8302a61a");
    ("pascal_style s3 d4 n256", "299ca9770822df0521943a57fcb1b637");
    ("pascal_style s3 d6 n16", "7a93fb2482a34ebebe57b36b3f07aee1");
    ("pascal_style s3 d6 n64", "a70a8916be1ebb0ac01f517c0972d168");
    ("pascal_style s3 d6 n256", "0824bd2235eee4eb28dc3e602882dd12");
    ("pascal_style s4 d2 n16", "588d6941144fa9bf86a6d1829a72b1c8");
    ("pascal_style s4 d2 n64", "3cc9d1bf3ae6d63ff79a4f21018a2ca9");
    ("pascal_style s4 d2 n256", "7aee885cf4690d56e532e71f8f3d6e80");
    ("pascal_style s4 d3 n16", "e61561ad4be944933ea92d45a70d1af4");
    ("pascal_style s4 d3 n64", "8fb267b58264c50f64b00c4dd508ba14");
    ("pascal_style s4 d3 n256", "d7633392228574ac3c69663ec9f82c09");
    ("pascal_style s4 d4 n16", "24e409252f3ed213798ca94e33dafdc0");
    ("pascal_style s4 d4 n64", "9fb79077cd1b7fd69062fe03ff7fd03f");
    ("pascal_style s4 d4 n256", "fa9fb04cb623f64a0a6d0dce7df60fc0");
    ("pascal_style s4 d6 n16", "f0ddcb5d7dbf0e8cd259f9aee31c483f");
    ("pascal_style s4 d6 n64", "7dc8f97659fce3899631238e35ca9387");
    ("pascal_style s4 d6 n256", "e46294542c12c5277f1c64bf32e37505");
    ("pascal_style s5 d2 n16", "e8fd34ea5c620d1e3916a328c235afa2");
    ("pascal_style s5 d2 n64", "766b1d85d3570287292960ecb6c2af14");
    ("pascal_style s5 d2 n256", "cc746995782d90e3c01612bb0098ee93");
    ("pascal_style s5 d3 n16", "ebcd1a9ee3d99d2d5214080432359ea0");
    ("pascal_style s5 d3 n64", "3f92d2df06f6127add2f0df08ce10854");
    ("pascal_style s5 d3 n256", "53f401b3b103160175b38099c0e40d4f");
    ("pascal_style s5 d4 n16", "d7023f3df0a9054e215cef08985441e3");
    ("pascal_style s5 d4 n64", "f8164af48bed3784c87a2eade974abad");
    ("pascal_style s5 d4 n256", "77c54bae6708f8acfab3d99c034adfa2");
    ("pascal_style s5 d6 n16", "7f34063f615ddbd70f593261833f0e55");
    ("pascal_style s5 d6 n64", "32ecc148595d09b87acc40e240bde583");
    ("pascal_style s5 d6 n256", "88d493f7aa6975070f788377b0bc7e58");
    ("gen 0", "78ce03e407be255df3f9ce8985fda491");
    ("gen 1", "5d3ba87c61815bb4b07210d0a2d2e585");
    ("gen 2", "838ed2abc23213243410f34f6cb0737a");
    ("gen 3", "e3d860d1d8aab19998ea011815ffea10");
    ("gen 4", "4e6534b90c713f3f99e7b378ff46357d");
    ("gen 5", "f917e2d1ad932dab5324b0c629d64b9e");
    ("gen 6", "0725a35c2a83d5311c009f63a5f7fd65");
    ("gen 7", "c4efb26ceaa1985c2453854091769dca");
    ("gen 8", "67f01b273f79f9e4408cf084aa61b829");
    ("gen 9", "2221b4224de1bb2139589769ade0b768");
    ("gen 10", "b88bd8bff85066f5b56d32ab1ec26946");
    ("gen 11", "c05504212cb247bda814aca0255ec788");
    ("gen 12", "758489cf2a85104bfa297f70469f2fcd");
    ("gen 13", "581242f94254316c4e615fe0334020d1");
    ("gen 14", "5eb8544951fff225e58047bb66713d10");
    ("gen 15", "ca69594082df6bed838ca13e403b1d5f");
    ("gen 16", "5b0c92a1b35aa767f185d998599f8941");
    ("gen 17", "28edf9479d8f39129a7014136bbb723e");
    ("gen 18", "9d4d6f62b5b9c581f9431f9939404c09");
    ("gen 19", "3d1dcc1f4705be9912443f66ef3d5c59");
    ("gen 20", "a7f2aad3fba54ecc408ecc3b39e309a1");
    ("gen 21", "d6fba96b1501e1d7d52a9aa1d38645c5");
    ("gen 22", "30f31ace7540958c032f4f48774543de");
    ("gen 23", "465654b842716a01adecfbb633bf48bd");
    ("gen 24", "4ef519127bef64fa4d78cb616e8809a2");
    ("gen 25", "e231d6780bb6128a39c0b0878eeca3cb");
    ("gen 26", "c7689c75fcc57fd9e89bb0ca59fb568f");
    ("gen 27", "8222d160b8df29a456603359fbb5f9cd");
    ("gen 28", "e941aa0b9dd40a4533932e4dd2288be4");
    ("gen 29", "e598ee3966c977b07ea93e402f2c2f66");
    ("gen 30", "11465a8b0624b935ae361f04717e38dd");
    ("gen 31", "dbab7ea32dab6ce32299e4e068230053");
    ("gen 32", "c13fe7a14a7b37473ef938bbaa7f933b");
    ("gen 33", "7f979a9558d29ce49a2b456f4f606339");
    ("gen 34", "c7e835592e58e7e51e31fd1baa75cdbe");
    ("gen 35", "3bc85ba0786131ecad38469796d5196d");
    ("gen 36", "bb78db2527c2166ea8744e2baf7b697f");
    ("gen 37", "f9706babec49b0b77d22b1234cb4ad3c");
    ("gen 38", "fbc0487a8d89c6fbc36e6c46881dcb04");
    ("gen 39", "d947908085f5710fc7ff713d84c8bea7");
    ("nested_textbook", "b1a2b0d94b9e769b2cda68b5575dc236");
    ("report.mp", "e932a031e6bdaddadf687bc07e13e56e");
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
      ( "golden",
        [ Alcotest.test_case "single-pass digests" `Quick test_golden ] );
    ]
