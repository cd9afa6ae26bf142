(* §5 tests: DMOD/MOD per call site (equation 2 + alias extension) and
   per statement. *)

let compile = Helpers.compile

let site_of prog ~caller i =
  List.nth (Ir.Prog.sites_of prog (Helpers.proc_id prog caller)) i

let main_site prog i = List.nth (Ir.Prog.sites_of prog prog.Ir.Prog.main) i

let test_dmod_projection () =
  let prog =
    compile
      {|program m;
var g, untouched : int;
procedure f(var x : int; y : int);
var l : int;
begin
  x := y;
  g := 1;
  l := 2;
end;
begin
  call f(g, untouched);
end.|}
  in
  let t = Core.Analyze.run prog in
  let sid = (main_site prog 0).Ir.Prog.sid in
  (* DMOD: g both as global and as projected actual; f's local and
     by-value formal excluded; untouched only read. *)
  Helpers.check_var_set prog "DMOD" [ "g" ] (Core.Analyze.dmod_of_site t sid);
  (* g is passed by reference but f only writes x, never reads it, so
     g's value is not used; the by-value argument is evaluated. *)
  Helpers.check_var_set prog "USE includes arg evaluation" [ "untouched" ]
    (Core.Analyze.use_of_site t sid)

let test_mod_adds_aliases () =
  let prog =
    compile
      {|program m;
var g, h : int;
procedure setter(var a : int);
begin
  a := 1;
end;
procedure f(var x : int; var y : int);
begin
  call setter(x);
end;
begin
  call f(g, g);
  call f(g, h);
end.|}
  in
  let t = Core.Analyze.run prog in
  (* Inside f, x may alias y (first site passes g twice).  The call
     setter(x) definitely modifies x; the alias extension adds y. *)
  let inner = (site_of prog ~caller:"f" 0).Ir.Prog.sid in
  Helpers.check_var_set prog "DMOD(setter(x))" [ "f.x" ]
    (Core.Analyze.dmod_of_site t inner);
  Helpers.check_var_set prog "MOD adds aliased y and g" [ "g"; "f.x"; "f.y" ]
    (Core.Analyze.mod_of_site t inner)

let test_transitive_chain () =
  let prog = Workload.Families.global_chain 5 in
  let t = Core.Analyze.run prog in
  let sid = (main_site prog 0).Ir.Prog.sid in
  Helpers.check_var_set prog "main's call reaches the deep write" [ "g0" ]
    (Core.Analyze.mod_of_site t sid)

let test_dmod_stmt () =
  let prog =
    compile
      {|program m;
var g, h : int;
procedure f();
begin
  g := 1;
end;
begin
  if h < 3 then
    call f();
    h := 2;
  end;
end.|}
  in
  let t = Core.Analyze.run prog in
  let main = Ir.Prog.proc prog prog.Ir.Prog.main in
  let if_stmt = List.hd main.Ir.Prog.body in
  (* Equation (2) on the whole if: LMODs inside plus the projection of
     the call. *)
  Helpers.check_var_set prog "DMOD(if)" [ "g"; "h" ]
    (Core.Summary.dmod_stmt t.Core.Analyze.summary ~proc:prog.Ir.Prog.main if_stmt);
  Helpers.check_var_set prog "DUSE(if)" [ "h" ]
    (Core.Summary.duse_stmt t.Core.Analyze.summary ~proc:prog.Ir.Prog.main if_stmt)

let prop_dmod_subset_mod seed =
  let prog = Helpers.flat_of_seed seed in
  let t = Core.Analyze.run prog in
  let ok = ref true in
  Ir.Prog.iter_sites prog (fun s ->
      let d = Core.Analyze.dmod_of_site t s.Ir.Prog.sid in
      let m = Core.Analyze.mod_of_site t s.Ir.Prog.sid in
      if not (Bitvec.subset d m) then ok := false);
  !ok

let prop_mod_within_visible_or_deep seed =
  (* MOD(s) of a flat program contains only globals and variables of
     the caller (its formals/locals) — everything else is dead at s. *)
  let prog = Helpers.flat_of_seed seed in
  let t = Core.Analyze.run prog in
  let info = t.Core.Analyze.info in
  let ok = ref true in
  Ir.Prog.iter_sites prog (fun s ->
      let m = Core.Analyze.mod_of_site t s.Ir.Prog.sid in
      let visible = Ir.Info.visible info s.Ir.Prog.caller in
      if not (Bitvec.subset m visible) then ok := false);
  !ok

let prop_dmod_matches_definition seed =
  (* Recompute the projection by hand from GMOD and compare. *)
  let prog = Helpers.flat_of_seed seed in
  let t = Core.Analyze.run prog in
  let info = t.Core.Analyze.info in
  let ok = ref true in
  Ir.Prog.iter_sites prog (fun s ->
      let callee = Ir.Prog.proc prog s.Ir.Prog.callee in
      let expected = Bitvec.copy t.Core.Analyze.gmod.(s.Ir.Prog.callee) in
      ignore
        (Bitvec.inter_into ~src:(Ir.Info.non_local info s.Ir.Prog.callee) ~dst:expected);
      Array.iteri
        (fun i arg ->
          match arg with
          | Ir.Prog.Arg_ref lv ->
            if Bitvec.get t.Core.Analyze.gmod.(s.Ir.Prog.callee) callee.Ir.Prog.formals.(i)
            then Bitvec.set expected (Ir.Expr.lvalue_base lv)
          | Ir.Prog.Arg_value _ -> ())
        s.Ir.Prog.args;
      if not (Bitvec.equal expected (Core.Analyze.dmod_of_site t s.Ir.Prog.sid)) then
        ok := false);
  !ok

let prop_rmod_consistent_with_gmod seed =
  (* GMOD(q) restricted to q's by-ref formals = RMOD(q): the two
     decomposed subproblems agree where they overlap. *)
  let prog = Helpers.flat_of_seed seed in
  let t = Core.Analyze.run prog in
  let ok = ref true in
  Ir.Prog.iter_procs prog (fun pr ->
      Array.iter
        (fun f ->
          if Ir.Prog.is_ref_formal (Ir.Prog.var prog f) then begin
            let in_gmod = Bitvec.get t.Core.Analyze.gmod.(pr.Ir.Prog.pid) f in
            let in_rmod = Core.Rmod.modified t.Core.Analyze.rmod f in
            if in_gmod <> in_rmod then ok := false
          end)
        pr.Ir.Prog.formals);
  !ok

(* --- per-site §5 golden ---

   MD5 digests of every §5 output on the alias identity corpus
   ({!Helpers.alias_corpus}): MOD/USE/DMOD/DUSE of every call site,
   [Alias.aliases_of] of every variable that occurs in a pair, and
   [Summary.mod_stmt]/[use_stmt] of every top-level statement of every
   body — under both points-to tiers on pointer programs.  They were
   recorded on the pair-set alias store and the per-query callee
   projection; a change to what either answers changes a digest. *)

let summary_text prog =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let ints l = String.concat "," (List.map string_of_int l) in
  let set v = ints (Bitvec.to_list v) in
  let tiers =
    if Ptsto.has_pointers prog then [ Ptsto.Steensgaard; Ptsto.Andersen ]
    else [ Ptsto.Steensgaard ]
  in
  List.iter
    (fun tier ->
      let t = Core.Analyze.run ~ptsto:tier prog in
      let module A = Core.Analyze in
      add "tier %s\n" (Ptsto.tier_name tier);
      Ir.Prog.iter_sites prog (fun s ->
          let sid = s.Ir.Prog.sid in
          add "s%d mod [%s] use [%s] dmod [%s] duse [%s]\n" sid
            (set (A.mod_of_site t sid)) (set (A.use_of_site t sid))
            (set (A.dmod_of_site t sid)) (set (A.duse_of_site t sid)));
      Ir.Prog.iter_procs prog (fun pr ->
          let pid = pr.Ir.Prog.pid in
          List.concat_map (fun (x, y) -> [ x; y ]) (Core.Alias.pairs t.A.alias pid)
          |> List.sort_uniq Int.compare
          |> List.iter (fun v ->
                 add "p%d v%d ~ [%s]\n" pid v
                   (ints (Core.Alias.aliases_of t.A.alias ~proc:pid ~var:v)));
          List.iteri
            (fun i stmt ->
              add "p%d stmt %d mod [%s] use [%s]\n" pid i
                (set (Core.Summary.mod_stmt t.A.summary ~proc:pid stmt))
                (set (Core.Summary.use_stmt t.A.summary ~proc:pid stmt)))
            pr.Ir.Prog.body))
    tiers;
  Buffer.contents b

let summary_digests =
  [
    ("ptr_chain 2", "a5a244d15ce17f336a333dde0b0cd30d");
    ("ptr_funnel 2", "3aa93d98064dba11fc67eaa101d72b82");
    ("ptr_heap 2", "d20efb3d5f099e13961f0138ef5d6b33");
    ("ptr_chain 16", "917655cca5e6f2b5a4517a31d0f09975");
    ("ptr_funnel 16", "349b9ff2024da8f5913bea444575dc84");
    ("ptr_heap 16", "6443e7d8d5997698e030fb5e1c97f164");
    ("ptr_chain 64", "002b7e677b25dc622ecc234e4816b2e9");
    ("ptr_funnel 64", "5293a2c4749cbe1d3bdd3f162bd4a49e");
    ("ptr_heap 64", "b239d088db8998f32aa0582c9f62b41e");
    ("fortran_style s1", "c703f84480b6f880d1332ecbd3f547b0");
    ("fortran_fixed s1", "bc244d3922f8d788469ed88ad5cf9199");
    ("dag_style s1", "851ffc94cc9135716553add7bff3c697");
    ("pascal_style s1", "2d431b6382002adfb1eacdf3fe899948");
    ("fortran_style s2", "2c49edf5d8fc4376913b650bc9d905d6");
    ("fortran_fixed s2", "07633a24e45ee35deb000a75a63a8c2b");
    ("dag_style s2", "2546e986bd9841d09ffc303b9951cdd8");
    ("pascal_style s2", "aa1b0169d11cf3cf4877258da0ff8a24");
    ("bank.mp", "04ae54c8f7528213a480a2af09197ec0");
    ("dataflow_demo.mp", "e66bfb45fc5214a560126e9639e56d33");
    ("lint_demo.mp", "9d25cf1ec4235a5213d2d8546e038969");
    ("mustmod_demo.mp", "aa042fc9def3254784b8f4f5ae81e178");
    ("pipeline.mp", "13afd0d33755f2bab27cb4b1c2ac404e");
    ("pointers.mp", "ed268520e95ac86710cd7e642c77d81a");
    ("ptr_lint.mp", "5394743e80c5ef6e0a97b0d6eb725108");
    ("report.mp", "8fd3f8b22324987fe4d9905e3e371241");
    ("stencil.mp", "1c1dffd2152be52795d1799385838fda");
    ("late taint", "b94bc3dc695816d32e2a80be329aafaa");
    ("gen 0", "3f2eb840a6e78802051db597185dce90");
    ("gen 1", "153d9bf4def7fa187f93da03ae9d7cfe");
    ("gen 2", "975f656bbc9e1409114be49254340df7");
    ("gen 3", "e2bd4c5beb6126e8a4cc27b61d41de08");
    ("gen 4", "153d6577f20cdeaa434975bde62e92c8");
    ("gen 5", "94b1f90251e0b383feb4fdc57495c249");
    ("gen 6", "3d4c63692ddc35a3de618e728405ccb2");
    ("gen 7", "b6f2f082fa4bc19ac75bfe3fd8199c81");
    ("gen 8", "b5da1439bb279db91b951cfd33dc9e24");
    ("gen 9", "1218957ece5fef21ee0af86490a43c24");
    ("gen 10", "ff60e10509b8f7266d809c4c78640a32");
    ("gen 11", "0d64fd8a7b8c1c01c9a833db33a4552b");
    ("gen 12", "ca8f62588b5f467935aab0817017640b");
    ("gen 13", "c39f3febd0b43f747c23e39b457d48d5");
    ("gen 14", "357ae387f45d7361d48f09e9f590a1b6");
    ("gen 15", "e536a7e63ebd0066f9828a9fbebff726");
    ("gen 16", "7da8ea38209ebe7a25feabbf709c47cb");
    ("gen 17", "8eeb6b5ad2b4a77d3acb0b289e38f553");
    ("gen 18", "626474f978c242b17ac6b46dde8b0737");
    ("gen 19", "cad43a105ade78e917744f90f899ba4f");
    ("gen 20", "53e2a796e17dd3c2d84c028de5bd75ce");
    ("gen 21", "714f036615e08dc468f17fd9e98b44de");
    ("gen 22", "84a5075a9e101fc9238846084f087af0");
    ("gen 23", "6df16848e79285f32df8eed6b1e2d9c2");
    ("gen 24", "80fc1bf6db578f2b3922533566f8e2f2");
    ("gen 25", "f57035643f608d54df23ed5520e6d8bc");
    ("gen 26", "beb61ada6600038945c5813bce353c4c");
    ("gen 27", "ee9eb3f0aa442381a5bdb2d43be35b7b");
    ("gen 28", "5d61f8466220252fa54aa310a9599b5f");
    ("gen 29", "bf965f351c97d86afc55d1b52e09312c");
    ("gen 30", "8df4257a16beb42546e02fc5cc187f8a");
    ("gen 31", "a6e73a56d64186d4465929b346e7b27d");
    ("gen 32", "40ebf8e1e45653ead0143e4ce91d63a4");
    ("gen 33", "5747f5c3a36795c6e5fee9cea2f4be9a");
    ("gen 34", "650c93fef9dcf2752e93ab4e0b2e39bd");
    ("gen 35", "0f715c4f35c4b55c38d789be64829d24");
    ("gen 36", "de6c7dc07a3368da7820ecce05c732a2");
    ("gen 37", "8d1dc21fb40700b769947cece040dca7");
    ("gen 38", "1f151a20b6fcec0906113b3e7b27165c");
    ("gen 39", "5f1306cc871e10e45e47ae5b4a1215ea");
    ("gen 40", "8a73a0ee198be3db0e5f300974548bc3");
    ("gen 41", "9c4414588aeff06aa32e089752674aae");
    ("gen 42", "524afb1de293e0be3349a323fde2c6a6");
    ("gen 43", "f2900fe7621211926115e5a035375d2e");
    ("gen 44", "e398b40f44a8ad0d516e7694d50aee4b");
    ("gen 45", "0c2eccdb772b3cfe7331e4003992235e");
    ("gen 46", "01343e47d33aee60cffcc116db979c79");
    ("gen 47", "4adbf7781ad8f00a1134013e76ac61fd");
    ("gen 48", "a7d44ade8ff5dfbde05f968ad16345fe");
    ("gen 49", "b783831839613ec30f7d85383dd67e4e");
  ]

let test_summary_golden () =
  List.iter
    (fun (name, make) ->
      let got = Digest.to_hex (Digest.string (summary_text (make ()))) in
      Alcotest.(check string) name (List.assoc name summary_digests) got)
    Helpers.alias_corpus

let () =
  Helpers.run "summary"
    [
      ( "sites",
        [
          Alcotest.test_case "projection of GMOD at a site" `Quick
            test_dmod_projection;
          Alcotest.test_case "MOD adds alias pairs" `Quick test_mod_adds_aliases;
          Alcotest.test_case "transitive chain" `Quick test_transitive_chain;
          Alcotest.test_case "statement-level DMOD (eq 2)" `Quick test_dmod_stmt;
        ] );
      ( "golden",
        [ Alcotest.test_case "per-site MOD/USE identity" `Quick test_summary_golden ] );
      ( "properties",
        [
          Helpers.qtest "DMOD ⊆ MOD" Helpers.arb_flat_prog prop_dmod_subset_mod;
          Helpers.qtest "MOD stays within the caller's scope" Helpers.arb_flat_prog
            prop_mod_within_visible_or_deep;
          Helpers.qtest "DMOD matches its definition" Helpers.arb_flat_prog
            prop_dmod_matches_definition;
          Helpers.qtest "RMOD = GMOD restricted to ref formals" Helpers.arb_flat_prog
            prop_rmod_consistent_with_gmod;
        ] );
    ]
