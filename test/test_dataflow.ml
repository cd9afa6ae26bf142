(* The statement-level dataflow layer: CFG shape against the documented
   construction, solver results against hand computations, graph
   well-formedness on generated programs, the interpreter's
   read-before-write oracle for liveness, and the determinism contracts
   of the dead-store / rmw-hint rules (jobs-invariance, incremental
   equals batch). *)

module P = Ir.Prog
module Cfg = Dataflow.Cfg

let compile = Helpers.compile
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let compile_locs src =
  match Frontend.Sema.compile_with_locs ~file:"<test>" src with
  | Ok r -> r
  | Error _ -> Alcotest.fail "compile_with_locs failed"

let main_cfg ?locs prog = Cfg.build ?locs prog prog.P.main

let ids = Array.to_list

(* --- CFG shape ----------------------------------------------------- *)

let test_shape_straight () =
  let prog = compile {|program p; var x : int; begin x := 1; x := 2; write x; end.|} in
  let c = main_cfg prog in
  check_int "blocks" 2 (Cfg.n_blocks c);
  check_int "edges" 1 (Cfg.n_edges c);
  check_int "instrs" 3 (Cfg.n_instrs c);
  check_int "entry" 0 c.Cfg.entry;
  check_int "exit is last" (Cfg.n_blocks c - 1) c.Cfg.exit_

let test_shape_if () =
  let prog =
    compile
      {|program p; var x : int;
begin
  if x < 1 then
    x := 1;
  else
    x := 2;
  end;
  write x;
end.|}
  in
  let c = main_cfg prog in
  (* entry (cond), then, else, join, exit *)
  check_int "blocks" 5 (Cfg.n_blocks c);
  check_int "edges" 5 (Cfg.n_edges c);
  let b0 = c.Cfg.blocks.(0) in
  check_int "entry branches" 2 (Array.length b0.Cfg.succs);
  (match b0.Cfg.instrs.(Array.length b0.Cfg.instrs - 1) with
  | _, Cfg.Cond _ -> ()
  | _ -> Alcotest.fail "entry should end in the if condition");
  let bt = b0.Cfg.succs.(0) and be = b0.Cfg.succs.(1) in
  check_bool "then before else" true (bt < be);
  Alcotest.(check (list int))
    "arms meet at the join"
    (ids c.Cfg.blocks.(bt).Cfg.succs)
    (ids c.Cfg.blocks.(be).Cfg.succs)

let test_shape_while () =
  let prog =
    compile
      {|program p; var x : int;
begin
  while x > 0 do
    x := x - 1;
  end;
end.|}
  in
  let c = main_cfg prog in
  (* entry, test, body, join, exit *)
  check_int "blocks" 5 (Cfg.n_blocks c);
  check_int "edges" 5 (Cfg.n_edges c);
  let test = c.Cfg.blocks.(0).Cfg.succs.(0) in
  let tb = c.Cfg.blocks.(test) in
  check_int "test branches" 2 (Array.length tb.Cfg.succs);
  let body = tb.Cfg.succs.(0) in
  check_bool "body loops back to the test" true
    (Array.exists (fun s -> s = test) c.Cfg.blocks.(body).Cfg.succs)

let test_shape_for () =
  let prog =
    compile
      {|program p; var x, i : int;
begin
  for i := 1 to 3 do
    x := x + i;
  end;
end.|}
  in
  let c = main_cfg prog in
  (* entry (init), test, body, latch, join, exit *)
  check_int "blocks" 6 (Cfg.n_blocks c);
  check_int "edges" 6 (Cfg.n_edges c);
  (match c.Cfg.blocks.(0).Cfg.instrs with
  | [| (0, Cfg.For_init _) |] -> ()
  | _ -> Alcotest.fail "entry should hold exactly the for-init");
  (* init, test and step share the for statement's ordinal; the body
     assignment gets the next one. *)
  let ords = Hashtbl.create 8 in
  Cfg.iter_instrs c (fun ~block:_ ord i ->
      let tag =
        match i with
        | Cfg.For_init _ -> "init"
        | Cfg.For_test _ -> "test"
        | Cfg.For_step _ -> "step"
        | Cfg.Assign _ -> "assign"
        | _ -> "other"
      in
      Hashtbl.replace ords tag ord);
  check_int "test shares the for ordinal" (Hashtbl.find ords "init")
    (Hashtbl.find ords "test");
  check_int "step shares the for ordinal" (Hashtbl.find ords "init")
    (Hashtbl.find ords "step");
  check_int "body statement is the next ordinal"
    (Hashtbl.find ords "init" + 1)
    (Hashtbl.find ords "assign")

(* --- statement positions ------------------------------------------- *)

let test_stmt_locs () =
  let _prog, locs =
    compile_locs
      {|program p;
var x, i : int;
begin
  x := 0;
  for i := 1 to 3 do
    x := x + i;
  end;
  write x;
end.|}
  in
  let line ord = (Frontend.Locs.stmt locs ~proc:0 ord).Frontend.Loc.line in
  check_int "first assign" 4 (line 0);
  check_int "for header" 5 (line 1);
  check_int "loop body has its own position" 6 (line 2);
  check_int "write" 8 (line 3)

(* --- liveness / dead-store directed cases -------------------------- *)

let df_rules = List.filter_map Lint.Rule.find [ "dead-store"; "rmw-hint" ]

let findings_of ?rules src =
  let prog, locs = compile_locs src in
  let rules = Option.value ~default:df_rules rules in
  (prog, Lint.Engine.run ~locs ~rules (Core.Analyze.run prog))

let codes ds = List.map (fun d -> d.Lint.Diagnostic.code) ds

let test_dead_through_call_kill () =
  (* 'set' definitely overwrites x without reading it, so the earlier
     store is dead across the call. *)
  let _, ds =
    findings_of
      {|program p;
var x : int;
procedure set(var a : int);
begin
  a := 5;
end;
begin
  x := 1;
  call set(x);
  write x;
end.|}
  in
  Alcotest.(check (list string)) "one dead store" [ "SFX008" ] (codes ds);
  check_int "on the store before the call" 8
    (List.hd ds).Lint.Diagnostic.loc.Frontend.Loc.line

let test_alias_keeps_store () =
  (* 'v := 3' is read only through the other name: <u, v> is a §5 alias
     pair of outer (both bound to sum), so the read of u at the readit
     call keeps v alive; 'v := 0' survives through the by-ref exit
     boundary.  No dead store anywhere. *)
  let _, ds =
    findings_of
      {|program p;
var sum : int;
procedure readit(var a : int);
begin
  sum := sum + a;
end;
procedure outer(var u : int; var v : int);
begin
  v := 3;
  call readit(u);
  v := 0;
end;
begin
  sum := 0;
  call outer(sum, sum);
  write sum;
end.|}
  in
  check_bool "no dead-store under aliasing" true
    (not (List.exists (fun d -> d.Lint.Diagnostic.code = "SFX008") ds))

let test_dead_despite_callee_alias () =
  (* The converse: 'both' definitely writes through formal a whatever a
     aliases, so projecting MUSTDEF through the binding still kills x
     in the caller — the store before the call is a true positive. *)
  let _, ds =
    findings_of
      {|program p;
var x : int;
procedure both(var a : int; var b : int);
begin
  a := 1;
  b := 2;
end;
begin
  x := 1;
  call both(x, x);
  write x;
end.|}
  in
  check_bool "dead store still found" true
    (List.exists (fun d -> d.Lint.Diagnostic.code = "SFX008") ds)

let test_use_before_kill_keeps_store () =
  (* The callee reads its formal before overwriting it: gen beats kill. *)
  let _, ds =
    findings_of
      {|program p;
var x : int;
procedure inc(var a : int);
begin
  a := a + 1;
end;
begin
  x := 1;
  call inc(x);
  write x;
end.|}
  in
  check_bool "no dead-store when the call reads first" true
    (not (List.exists (fun d -> d.Lint.Diagnostic.code = "SFX008") ds));
  check_bool "rmw-hint fires instead" true
    (List.exists (fun d -> d.Lint.Diagnostic.code = "SFX009") ds)

let test_exit_boundary_keeps_global () =
  (* End-of-main stores to globals are never dead: output is
     observable. *)
  let _, ds =
    findings_of {|program p;
var x : int;
begin
  x := 1;
end.|}
  in
  Alcotest.(check (list string)) "no findings" [] (codes ds)

(* --- reaching definitions ------------------------------------------ *)

let test_reach_straight_line () =
  let prog =
    compile {|program p; var x : int; begin x := 1; x := 2; write x; end.|}
  in
  let t = Core.Analyze.run prog in
  let drv = Dataflow.Driver.create t in
  let s = Dataflow.Driver.solution drv prog.P.main in
  let r = s.Dataflow.Driver.reach in
  check_int "two definitions" 2 (Dataflow.Reach.n_defs r);
  (* Only the second store reaches the exit: the universe is enumerated
     in block/instruction order, so it is def 1. *)
  Alcotest.(check (list int))
    "second store reaches exit" [ 1 ]
    (Bitvec.to_list (Dataflow.Reach.reach_in r s.Dataflow.Driver.cfg.Cfg.exit_));
  let d = Dataflow.Reach.def r 1 in
  check_bool "and it is a must-def" true d.Dataflow.Reach.must

let test_reach_call_defs () =
  (* A call contributes one definition per variable of MOD(s). *)
  let prog =
    compile
      {|program p;
var g, h : int;
procedure w(var a : int);
begin
  a := 1;
  g := 2;
end;
begin
  call w(h);
  write g;
  write h;
end.|}
  in
  let t = Core.Analyze.run prog in
  let drv = Dataflow.Driver.create t in
  let s = Dataflow.Driver.solution drv prog.P.main in
  let r = s.Dataflow.Driver.reach in
  check_int "call defines g and h" 2 (Dataflow.Reach.n_defs r);
  Alcotest.(check (list int))
    "both reach exit" [ 0; 1 ]
    (Bitvec.to_list (Dataflow.Reach.reach_in r s.Dataflow.Driver.cfg.Cfg.exit_))

(* --- reaching-definitions golden ------------------------------------

   Digests of everything reaching definitions hand downstream, per
   procedure: each definition's (block, ordinal, variable, must), the
   solved entry/exit sets of every block, the set reaching each
   instruction as [Reach.fold_instrs] exposes it, the pass count, and
   the findings of the three rules that consume it (SFX008, SFX012,
   SFX013).  They were recorded with the per-instruction gen/kill
   build; any change to what reaching definitions compute changes a
   digest. *)

let reach_rules =
  List.filter_map Lint.Rule.find [ "dead-store"; "use-before-init"; "redundant-store" ]

let reach_text ?locs prog =
  let a = Core.Analyze.run prog in
  let drv = Dataflow.Driver.create ?locs a in
  let tf = Dataflow.Driver.transfer drv in
  let out = Buffer.create 4096 in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let set v = String.concat "," (List.map string_of_int (Bitvec.to_list v)) in
  for pid = 0 to P.n_procs prog - 1 do
    Buffer.clear b;
    let s = Dataflow.Driver.solution drv pid in
    let r = s.Dataflow.Driver.reach in
    add "passes %d\n" (Dataflow.Reach.passes r);
    for d = 0 to Dataflow.Reach.n_defs r - 1 do
      let df = Dataflow.Reach.def r d in
      add "d%d b%d o%d v%d %b\n" d df.Dataflow.Reach.block df.Dataflow.Reach.ord
        df.Dataflow.Reach.var df.Dataflow.Reach.must
    done;
    for blk = 0 to Cfg.n_blocks s.Dataflow.Driver.cfg - 1 do
      add "b%d in [%s] out [%s]\n" blk
        (set (Dataflow.Reach.reach_in r blk))
        (set (Dataflow.Reach.reach_out r blk));
      Dataflow.Reach.fold_instrs r tf ~block:blk ~init:()
        ~f:(fun () ~reach_before ~ord _ -> add " o%d [%s]\n" ord (set reach_before))
    done;
    Printf.bprintf out "p%d %s\n" pid (Digest.to_hex (Digest.string (Buffer.contents b)))
  done;
  List.iter
    (fun d -> Printf.bprintf out "%s\n" (Fmt.str "%a" Lint.Diagnostic.pp d))
    (Lint.Engine.run ?locs ~dataflow:drv ~rules:reach_rules a);
  Buffer.contents out

let reach_programs =
  let fam name f = (name, fun () -> reach_text (f ())) in
  let file name =
    ( name,
      fun () ->
        let path = Filename.concat "../programs" name in
        match
          Frontend.Sema.compile_with_locs ~file:path
            (In_channel.with_open_bin path In_channel.input_all)
        with
        | Ok (prog, locs) -> reach_text ~locs prog
        | Error _ -> Alcotest.failf "%s does not compile" path )
  in
  let module F = Workload.Families in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun n ->
          [
            fam (Printf.sprintf "fortran_fixed s%d n%d" seed n) (fun () ->
                F.fortran_fixed ~seed ~n);
            fam (Printf.sprintf "fortran_style s%d n%d" seed n) (fun () ->
                F.fortran_style ~seed ~n);
            fam (Printf.sprintf "dag_style s%d n%d" seed n) (fun () ->
                F.dag_style ~seed ~n);
            fam (Printf.sprintf "pascal_style s%d n%d" seed n) (fun () ->
                F.pascal_style ~seed ~n ~depth:3);
          ])
        [ 32; 128 ])
    [ 1; 2; 3; 4; 5 ]
  @ List.concat_map
      (fun n ->
        [
          fam (Printf.sprintf "ptr_chain %d" n) (fun () -> F.ptr_chain n);
          fam (Printf.sprintf "ptr_funnel %d" n) (fun () -> F.ptr_funnel n);
        ])
      [ 2; 16; 64 ]
  @ [ fam "nested_textbook" F.nested_textbook ]
  @ List.map file
      [
        "bank.mp"; "dataflow_demo.mp"; "lint_demo.mp"; "mustmod_demo.mp";
        "pipeline.mp"; "pointers.mp"; "ptr_lint.mp"; "report.mp"; "stencil.mp";
      ]

let reach_digests =
  [
    ("fortran_fixed s1 n32", "40b81ba9212f265f9e1b8f270564e365");
    ("fortran_style s1 n32", "bc98a0536eb06ab3c89230dfa301efbb");
    ("dag_style s1 n32", "c7db831f05bc6478b351466cbf945700");
    ("pascal_style s1 n32", "65bc9ceb7e870fb7dc5cfe9b11c4e0ca");
    ("fortran_fixed s1 n128", "8f5e20f2f07966dc3f9f3bcd7a650f67");
    ("fortran_style s1 n128", "e9d1be2ef43f68602d90520b7a270175");
    ("dag_style s1 n128", "d4626535601ea3a69b26748e32a373b8");
    ("pascal_style s1 n128", "9713e0836ba4522ad9b38f86069c115e");
    ("fortran_fixed s2 n32", "da92abc651ba055f9cb8a3bb4e4df5dc");
    ("fortran_style s2 n32", "20c27b86e0b7ed996b4e3cbed727e0fe");
    ("dag_style s2 n32", "7b206fe13a61d751aa6b600b3ff3586a");
    ("pascal_style s2 n32", "5a83910bd9ba5977c9fb864613db226c");
    ("fortran_fixed s2 n128", "9f2d574e7ec2fc507a563702a14e3a9b");
    ("fortran_style s2 n128", "c5183cee12ef2552211a0138f7239bc4");
    ("dag_style s2 n128", "6d8c8ac89bb14c894c749e6aa752c813");
    ("pascal_style s2 n128", "23289f524323a5d21f4131ee02f48614");
    ("fortran_fixed s3 n32", "e05d94e9f07247136babe5e9ea17ae1e");
    ("fortran_style s3 n32", "ad81c8b406afc989f9306f278e4af1f0");
    ("dag_style s3 n32", "0f299d6efe263c5318c5591ab1910fbe");
    ("pascal_style s3 n32", "c8c840b756a1a8535e4e712fa90f8a76");
    ("fortran_fixed s3 n128", "adb8fcf4de583040873f7c72ef27e311");
    ("fortran_style s3 n128", "a244262a336dfe9c0b91700565ce3c44");
    ("dag_style s3 n128", "c1347f8f71fbaa623e5af224a461514a");
    ("pascal_style s3 n128", "7888f50c2032bdf42e973cadfb6d5720");
    ("fortran_fixed s4 n32", "a3a95762fcbde5abdb5571d129291a2f");
    ("fortran_style s4 n32", "49261d73cebe6c35c1ddb447855f65d6");
    ("dag_style s4 n32", "29095a9c66dca664def10e7815f52068");
    ("pascal_style s4 n32", "a8c8cd53306ae2b1d1bdf36e15afa83b");
    ("fortran_fixed s4 n128", "6010d44d9e57584592f8504dd91984e6");
    ("fortran_style s4 n128", "2413288fc6116c866a05f9f2c7943a9a");
    ("dag_style s4 n128", "32c5741a4b5bc6be29157ce19cfbaa08");
    ("pascal_style s4 n128", "11f632ec016c7733e685b3bc27467676");
    ("fortran_fixed s5 n32", "51ba7abfca24a240711f0d631ad1705e");
    ("fortran_style s5 n32", "47b9e881718c97a4bc9c789310fc0207");
    ("dag_style s5 n32", "ab66f66224483b61f59e8dd5430c40ab");
    ("pascal_style s5 n32", "03761d54a2cc67095823d6a1e5fee875");
    ("fortran_fixed s5 n128", "a8412c9803c045e3bd03bf437bed997b");
    ("fortran_style s5 n128", "88a673895e12074a5208bfa1f33a41a1");
    ("dag_style s5 n128", "9d7cd38b38e7c6e4c4b3a6a1d59313b4");
    ("pascal_style s5 n128", "099b16b3a4ec7826e97d4f1539978b7d");
    ("ptr_chain 2", "7159fd1f7a7483e399eed8f093dbaa4f");
    ("ptr_funnel 2", "8d3a90fccdc999bb8908d8bd9d3cefc9");
    ("ptr_chain 16", "6128488d8bf0468077b90f88195b538c");
    ("ptr_funnel 16", "7188286c2184a492ccee72a31a246d75");
    ("ptr_chain 64", "a3b0c4baf0501842a3b1cd7792a8f127");
    ("ptr_funnel 64", "8252573594602d90bdc21ee92ba9a56a");
    ("nested_textbook", "8619c5c9730ef4ecc9633e40d076b162");
    ("bank.mp", "ae064e0b7083c1a55580eec294333fb8");
    ("dataflow_demo.mp", "5a298b616d1f8cef85b21b22d3952c95");
    ("lint_demo.mp", "213db5ebfce58f1cda4dbbfd03b62ee5");
    ("mustmod_demo.mp", "ed91b9266a79c934e1f28ad5aaf8b114");
    ("pipeline.mp", "a9d235b6ce787c3741711fbb59f2fdd7");
    ("pointers.mp", "10085f0f2d9d89177023e6493e12b5ed");
    ("ptr_lint.mp", "1df76bbba3eb5486d53b2ba45eb5520b");
    ("report.mp", "3a65d76bb9bebd595688ba16f8fc0584");
    ("stencil.mp", "0074117c6e3e3734d4444bc51767e0a5");
  ]

let test_reach_golden () =
  List.iter
    (fun (name, text) ->
      let got = Digest.to_hex (Digest.string (text ())) in
      Alcotest.(check string) name (List.assoc name reach_digests) got)
    reach_programs

(* --- gen/kill cost ----------------------------------------------------

   The gen/kill build walks each variable's definitions once per block
   that definitely writes the variable, so [dataflow.kill_visits] is
   exactly [Σ_b Σ_{v killed in b} |defs(v)|].  A build that re-walks
   defs(v) at every definite write of [v] exceeds it on any block that
   writes a variable twice. *)

let kill_visits = Obs.Metric.counter "dataflow.kill_visits"

let kill_bound drv prog =
  let tf = Dataflow.Driver.transfer drv in
  let bound = ref 0 in
  for pid = 0 to P.n_procs prog - 1 do
    let s = Dataflow.Driver.solution drv pid in
    Array.iter
      (fun blk ->
        let killed = ref [] in
        Array.iter
          (fun (_, ins) ->
            Dataflow.Transfer.iter_must_def tf ins (fun v -> killed := v :: !killed))
          blk.Cfg.instrs;
        List.iter
          (fun v ->
            bound :=
              !bound + List.length (Dataflow.Reach.defs_of_var s.Dataflow.Driver.reach v))
          (List.sort_uniq Int.compare !killed))
      s.Dataflow.Driver.cfg.Cfg.blocks
  done;
  !bound

let test_kill_visits pool () =
  let module F = Workload.Families in
  List.iter
    (fun (name, prog) ->
      let a = Core.Analyze.run prog in
      let visits pool =
        let drv = Dataflow.Driver.create a in
        let since = Obs.Metric.snapshot () in
        Dataflow.Driver.solve_all ?pool drv;
        (drv, Obs.Metric.value_since ~since kill_visits)
      in
      let drv, seq = visits None in
      let _, par = visits (Some pool) in
      check_int (name ^ ": kill visits = per-block bound") (kill_bound drv prog) seq;
      check_int (name ^ ": jobs 1 = jobs 4") seq par)
    [
      ("fortran_fixed 128", F.fortran_fixed ~seed:7 ~n:128);
      ("fortran_style 64", F.fortran_style ~seed:1 ~n:64);
      ("pascal_style 64 depth 3", F.pascal_style ~seed:2 ~n:64 ~depth:3);
      ("ptr_funnel 16", F.ptr_funnel 16);
      ( "repeated writes",
        compile
          {|program p;
var g, h : int;
procedure w(var a : int);
begin
  a := 1;
  g := 2;
end;
begin
  g := 0;
  call w(h);
  g := 3;
  call w(h);
  h := 4;
  write g;
end.|} );
    ]

(* --- well-formedness ------------------------------------------------ *)

let check_validate prog =
  match Cfg.validate prog with
  | Ok () -> true
  | Error errs ->
    QCheck.Test.fail_reportf "CFG invalid: %a"
      (Fmt.list ~sep:Fmt.comma Ir.Validate.pp_error)
      errs

let prop_valid_flat seed = check_validate (Helpers.flat_of_seed seed)
let prop_valid_nested seed = check_validate (Helpers.nested_of_seed seed)

let test_check_cfg_rejects () =
  let errs ~n_blocks ~entry ~exit_ succs =
    Ir.Validate.check_cfg ~where:"test" ~n_blocks ~entry ~exit_
      ~succs:(fun b -> succs.(b))
  in
  let expect name es = check_bool name true (es <> []) in
  expect "successor out of range"
    (errs ~n_blocks:2 ~entry:0 ~exit_:1 [| [ 5 ]; [] |]);
  expect "exit with a successor"
    (errs ~n_blocks:2 ~entry:0 ~exit_:1 [| [ 1 ]; [ 0 ] |]);
  expect "unreachable block"
    (errs ~n_blocks:3 ~entry:0 ~exit_:2 [| [ 2 ]; [ 2 ]; [] |]);
  expect "block that cannot reach exit"
    (errs ~n_blocks:3 ~entry:0 ~exit_:2 [| [ 1; 2 ]; []; [] |]);
  check_bool "well-formed diamond accepted" true
    (errs ~n_blocks:4 ~entry:0 ~exit_:3 [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] = [])

(* --- the interpreter's liveness oracle ------------------------------ *)

(* Project the callee-frame live-at-entry set through a site's binding
   into the caller's frame: globals survive, by-ref formals map to the
   base variable of their actual, everything else (locals, by-value
   formals — whose argument evaluation the interpreter charges to the
   caller, not the site) drops out. *)
let project_entry_live prog (site : P.site) live =
  let out = Bitvec.create (P.n_vars prog) in
  Bitvec.iter
    (fun v ->
      match (P.var prog v).P.kind with
      | P.Global -> Bitvec.set out v
      | P.Local _ -> ()
      | P.Formal { proc; index; mode } ->
        if proc = site.P.callee && mode = P.By_ref then (
          match site.P.args.(index) with
          | P.Arg_ref (Ir.Expr.Lvar a) -> Bitvec.set out a
          | P.Arg_ref (Ir.Expr.Lindex (a, _) | Ir.Expr.Lderef (a, _)) ->
            Bitvec.set out a
          | P.Arg_value _ -> ()))
    live;
  out

(* Every cell a call read before writing must be predicted live into
   the callee: observed_live(s) ⊆ aliases(b_e(LIVE_in(entry))).  The
   sharp half of the dataflow contract — a kill set that is too eager
   (an unsound MUSTDEF, a missing alias subtraction) fails here even
   though plain USE-soundness still holds. *)
let prop_live_oracle seed =
  let prog = Helpers.flat_of_seed ~n:20 seed in
  let t = Core.Analyze.run prog in
  let drv = Dataflow.Driver.create t in
  let o = Interp.run ~fuel:10_000 ~max_depth:256 prog in
  o.Interp.truncated
  ||
  let ok = ref true in
  P.iter_sites prog (fun s ->
      let sid = s.P.sid in
      if o.Interp.calls_executed.(sid) > 0 then begin
        let sol = Dataflow.Driver.solution drv s.P.callee in
        let live =
          Dataflow.Live.live_in sol.Dataflow.Driver.live
            sol.Dataflow.Driver.cfg.Cfg.entry
        in
        let static =
          Core.Alias.close t.Core.Analyze.alias ~proc:s.P.caller
            (project_entry_live prog s live)
        in
        if not (Bitvec.subset (Interp.observed_live o sid) static) then begin
          ok := false;
          QCheck.Test.fail_reportf
            "site %d: observed read-before-write not predicted live" sid
        end
      end);
  !ok

let test_live_oracle_exact_straight_line () =
  (* On a straight-line, call-free callee the solver is exact: the
     dynamic read-before-write set equals the projected live-in. *)
  let prog =
    compile
      {|program p;
var g, h : int;
procedure f(var x : int);
begin
  g := x;
  x := h;
end;
begin
  h := 1;
  call f(g);
  write g;
end.|}
  in
  let t = Core.Analyze.run prog in
  let drv = Dataflow.Driver.create t in
  let o = Interp.run prog in
  let s = P.site prog 0 in
  let sol = Dataflow.Driver.solution drv s.P.callee in
  let live =
    Dataflow.Live.live_in sol.Dataflow.Driver.live
      sol.Dataflow.Driver.cfg.Cfg.entry
  in
  let static =
    Core.Alias.close t.Core.Analyze.alias ~proc:s.P.caller
      (project_entry_live prog s live)
  in
  check_bool "observed = predicted" true
    (Bitvec.equal (Interp.observed_live o 0) static)

(* --- determinism ---------------------------------------------------- *)

let render prog rules ds =
  Obs.Json.to_string (Lint.Engine.report_json ~program:prog.P.name ~rules ds)

let prop_jobs_invariant pool seed =
  let prog = Helpers.flat_of_seed ~n:20 seed in
  let t = Core.Analyze.run prog in
  let seq = Lint.Engine.run ~rules:df_rules t in
  let par = Lint.Engine.run ?pool ~rules:df_rules t in
  String.equal (render prog df_rules seq) (render prog df_rules par)
  || QCheck.Test.fail_reportf "jobs=1 and jobs=4 lint JSON differ"

let prop_incremental_matches_batch seed =
  let prog = Helpers.flat_of_seed ~n:20 seed in
  let rand = Random.State.make [| seed; 0xdf |] in
  let script = Workload.Edits.gen ~rand ~steps:6 prog in
  let engine = Incremental.Engine.create prog in
  List.for_all
    (fun (edit, _) ->
      let before = Incremental.Engine.prog engine in
      let (_ : Incremental.Engine.outcome) =
        Incremental.Engine.apply engine edit
      in
      let inc = Incremental.Engine.lint ~rules:df_rules engine in
      let batch =
        Lint.Engine.run ~rules:df_rules (Incremental.Engine.analysis engine)
      in
      List.equal Lint.Diagnostic.equal inc batch
      || QCheck.Test.fail_reportf "incremental lint diverged after %s"
           (Incremental.Edit.to_string before edit))
    script

let () =
  let pool = Par.Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  Helpers.run "dataflow"
    [
      ( "cfg",
        [
          Alcotest.test_case "straight line" `Quick test_shape_straight;
          Alcotest.test_case "if/else" `Quick test_shape_if;
          Alcotest.test_case "while" `Quick test_shape_while;
          Alcotest.test_case "for" `Quick test_shape_for;
          Alcotest.test_case "statement positions" `Quick test_stmt_locs;
          Alcotest.test_case "check_cfg rejects malformed graphs" `Quick
            test_check_cfg_rejects;
        ] );
      ( "rules",
        [
          Alcotest.test_case "dead through call kill" `Quick
            test_dead_through_call_kill;
          Alcotest.test_case "alias pair keeps the store" `Quick
            test_alias_keeps_store;
          Alcotest.test_case "dead despite callee alias" `Quick
            test_dead_despite_callee_alias;
          Alcotest.test_case "callee read defeats kill" `Quick
            test_use_before_kill_keeps_store;
          Alcotest.test_case "exit boundary keeps globals" `Quick
            test_exit_boundary_keeps_global;
        ] );
      ( "reach",
        [
          Alcotest.test_case "straight line" `Quick test_reach_straight_line;
          Alcotest.test_case "call definitions" `Quick test_reach_call_defs;
        ] );
      ( "golden",
        [ Alcotest.test_case "reaching-definitions identity" `Quick test_reach_golden ] );
      ( "cost",
        [
          Alcotest.test_case "kill visits = per-block bound, jobs-invariant" `Quick
            (test_kill_visits pool);
        ] );
      ( "random",
        [
          Helpers.qtest ~count:60 "flat CFGs well-formed" Helpers.arb_flat_prog
            prop_valid_flat;
          Helpers.qtest ~count:60 "nested CFGs well-formed"
            Helpers.arb_nested_prog prop_valid_nested;
          Helpers.qtest ~count:60 "liveness covers read-before-write"
            Helpers.arb_flat_prog prop_live_oracle;
          Helpers.qtest ~count:40 "lint jobs-invariant" Helpers.arb_flat_prog
            (prop_jobs_invariant (Some pool));
          Helpers.qtest ~count:30 "incremental lint = batch lint"
            Helpers.arb_flat_prog prop_incremental_matches_batch;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exact on straight-line callee" `Quick
            test_live_oracle_exact_straight_line;
        ] );
    ]
