(* Regular-section (§6) tests: lattice laws, local sections, binding
   functions, the β solver, sectioned GMOD, the bit-level bridge, and
   loop dependence verdicts. *)

module S = Sections.Section

let atom_i = S.Affine { var = 100; offset = 0 }
let atom_i1 = S.Affine { var = 100; offset = 1 }
let atom_j = S.Affine { var = 101; offset = 0 }
let c3 = S.Const 3
let c4 = S.Const 4

let sec dims = S.Section (Array.of_list dims)
let ex a = S.Exact a

(* --- lattice unit tests --- *)

let test_join_table () =
  let row = sec [ ex atom_i; S.Star ] in
  let col = sec [ S.Star; ex atom_j ] in
  let el = sec [ ex atom_i; ex atom_j ] in
  let whole = S.whole ~rank:2 in
  Alcotest.(check bool) "el ⊔ row = row" true (S.equal (S.join el row) row);
  Alcotest.(check bool) "row ⊔ col = whole" true (S.equal (S.join row col) whole);
  Alcotest.(check bool) "bottom identity" true (S.equal (S.join S.bottom row) row);
  Alcotest.(check bool) "same atom preserved" true
    (S.equal (S.join (sec [ ex atom_i; ex c3 ]) (sec [ ex atom_i; ex c4 ]))
       (sec [ ex atom_i; S.Star ]))

let test_leq () =
  let row = sec [ ex atom_i; S.Star ] in
  let el = sec [ ex atom_i; ex atom_j ] in
  Alcotest.(check bool) "el ⊑ row" true (S.leq el row);
  Alcotest.(check bool) "row ⋢ el" false (S.leq row el);
  Alcotest.(check bool) "bottom ⊑ all" true (S.leq S.bottom el);
  Alcotest.(check bool) "all ⊑ whole" true (S.leq row (S.whole ~rank:2))

let test_intersects () =
  Alcotest.(check bool) "same row" true
    (S.intersects (sec [ ex atom_i; S.Star ]) (sec [ ex atom_i; S.Star ]));
  Alcotest.(check bool) "const 3 vs const 4 disjoint" false
    (S.intersects (sec [ ex c3; S.Star ]) (sec [ ex c4; S.Star ]));
  Alcotest.(check bool) "i vs i+1 disjoint" false
    (S.intersects (sec [ ex atom_i ]) (sec [ ex atom_i1 ]));
  Alcotest.(check bool) "i vs j may meet" true
    (S.intersects (sec [ ex atom_i ]) (sec [ ex atom_j ]));
  Alcotest.(check bool) "bottom never" false
    (S.intersects S.bottom (S.whole ~rank:2))

let test_rank_mismatch () =
  Alcotest.check_raises "join mismatch"
    (Invalid_argument "Section.join: rank mismatch") (fun () ->
      ignore (S.join (S.whole ~rank:1) (S.whole ~rank:2)))

(* lattice laws under qcheck *)
let arb_section =
  let gen_atom =
    QCheck.Gen.(
      oneof
        [
          map (fun c -> S.Const c) (0 -- 5);
          map2 (fun v o -> S.Affine { var = 100 + v; offset = o }) (0 -- 2) (0 -- 2);
        ])
  in
  let gen_dim =
    QCheck.Gen.(oneof [ return S.Star; map (fun a -> S.Exact a) gen_atom ])
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          return S.Bottom;
          map (fun l -> sec l) (list_size (return 2) gen_dim);
        ])
  in
  QCheck.make gen ~print:(Fmt.to_to_string (S.pp ?var_name:None))

let arb_pair = QCheck.pair arb_section arb_section
let arb_triple = QCheck.triple arb_section arb_section arb_section

let prop_join_comm (a, b) = S.equal (S.join a b) (S.join b a)
let prop_join_idem (a, _) = S.equal (S.join a a) a
let prop_join_assoc (a, b, c) = S.equal (S.join (S.join a b) c) (S.join a (S.join b c))
let prop_leq_reflexive (a, _) = S.leq a a

let prop_leq_antisym (a, b) = if S.leq a b && S.leq b a then S.equal a b else true

let prop_join_is_lub (a, b) = S.leq a (S.join a b) && S.leq b (S.join a b)

let prop_intersects_monotone (a, b) =
  (* widening either side cannot make an intersecting pair disjoint *)
  if S.intersects a b then S.intersects (S.join a b) b else true

(* --- local sections --- *)

let kernel =
  Helpers.compile
    {|program k;
var n, s : int;
var a : array[8, 8] of int;
procedure rowk(var m : array[8, 8] of int; i : int);
var j : int;
begin
  for j := 1 to n do
    m[i, j] := 0;
  end;
end;
procedure elemk(var m : array[8, 8] of int; i : int; j : int);
begin
  m[i, j] := m[j, i] + 1;
end;
begin
  call rowk(a, 1);
  call elemk(a, 2, 3);
end.|}

let test_lrsd () =
  let unstable = Frontend.Local.imod_flat (Ir.Info.make kernel) in
  let lmod_all = Sections.Lrsd.lrsd_mod kernel ~unstable in
  let luse_all = Sections.Lrsd.lrsd_use kernel ~unstable in
  let rowk = Helpers.proc_id kernel "rowk" in
  let m = Helpers.var_id kernel "rowk.m" in
  let i = Helpers.var_id kernel "rowk.i" in
  let lmod = lmod_all.(rowk) in
  (* j is the loop variable, unstable, so the write is the whole row *)
  Alcotest.(check bool) "row section" true
    (S.equal (Sections.Secmap.get lmod m)
       (sec [ ex (S.Affine { var = i; offset = 0 }); S.Star ]));
  let elemk = Helpers.proc_id kernel "elemk" in
  let me = Helpers.var_id kernel "elemk.m" in
  let ie = Helpers.var_id kernel "elemk.i" in
  let je = Helpers.var_id kernel "elemk.j" in
  let lmod_e = lmod_all.(elemk) in
  Alcotest.(check bool) "element write" true
    (S.equal (Sections.Secmap.get lmod_e me)
       (sec
          [ ex (S.Affine { var = ie; offset = 0 }); ex (S.Affine { var = je; offset = 0 }) ]));
  let luse_e = luse_all.(elemk) in
  Alcotest.(check bool) "transposed element read" true
    (S.equal (Sections.Secmap.get luse_e me)
       (sec
          [ ex (S.Affine { var = je; offset = 0 }); ex (S.Affine { var = ie; offset = 0 }) ]))

let test_atomize () =
  let unstable = Bitvec.of_list 10 [ 7 ] in
  let at e = Sections.Lrsd.atomize ~unstable e in
  Alcotest.(check bool) "const" true (at (Ir.Expr.Int 3) = ex c3);
  Alcotest.(check bool) "stable var" true
    (at (Ir.Expr.Var 2) = ex (S.Affine { var = 2; offset = 0 }));
  Alcotest.(check bool) "unstable var" true (at (Ir.Expr.Var 7) = S.Star);
  Alcotest.(check bool) "v + 1" true
    (at (Ir.Expr.Binop (Ir.Expr.Add, Ir.Expr.Var 2, Ir.Expr.Int 1))
    = ex (S.Affine { var = 2; offset = 1 }));
  Alcotest.(check bool) "v - 2" true
    (at (Ir.Expr.Binop (Ir.Expr.Sub, Ir.Expr.Var 2, Ir.Expr.Int 2))
    = ex (S.Affine { var = 2; offset = -2 }));
  Alcotest.(check bool) "compound" true
    (at (Ir.Expr.Binop (Ir.Expr.Mul, Ir.Expr.Var 2, Ir.Expr.Int 2)) = S.Star)

(* --- end-to-end on the kernel program --- *)

let test_site_sections () =
  let t = Sections.Analyze_sections.run kernel in
  let sites = Ir.Prog.sites_of kernel kernel.Ir.Prog.main in
  let a = Helpers.var_id kernel "a" in
  (match sites with
  | [ s_row; s_elem ] ->
    let mod_row = Sections.Analyze_sections.mod_of_site t s_row.Ir.Prog.sid in
    Alcotest.(check bool) "row 1 of a" true
      (S.equal (Sections.Secmap.get mod_row a) (sec [ ex (S.Const 1); S.Star ]));
    let mod_elem = Sections.Analyze_sections.mod_of_site t s_elem.Ir.Prog.sid in
    Alcotest.(check bool) "element (2,3)" true
      (S.equal (Sections.Secmap.get mod_elem a) (sec [ ex (S.Const 2); ex (S.Const 3) ]))
  | _ -> Alcotest.fail "expected two sites")

(* --- rsd through β: forwarding chain keeps the row shape --- *)

let test_rsd_chain () =
  let prog =
    Helpers.compile
      {|program c;
var n : int;
var g : array[8, 8] of int;
procedure base(var m : array[8, 8] of int; i : int);
var j : int;
begin
  for j := 1 to n do
    m[i, j] := 1;
  end;
end;
procedure fwd(var m : array[8, 8] of int; i : int);
begin
  call base(m, i);
end;
begin
  call fwd(g, 4);
end.|}
  in
  let t = Sections.Analyze_sections.run prog in
  let fwd_m = Helpers.var_id prog "fwd.m" in
  let fwd_i = Helpers.var_id prog "fwd.i" in
  let s = Sections.Rsmod.section_of t.Sections.Analyze_sections.rsmod fwd_m in
  Alcotest.(check bool) "fwd's array modified in row i" true
    (S.equal s (sec [ ex (S.Affine { var = fwd_i; offset = 0 }); S.Star ]));
  let sid = (List.hd (Ir.Prog.sites_of prog prog.Ir.Prog.main)).Ir.Prog.sid in
  let m = Sections.Analyze_sections.mod_of_site t sid in
  Alcotest.(check bool) "site sees row 4" true
    (S.equal
       (Sections.Secmap.get m (Helpers.var_id prog "g"))
       (sec [ ex (S.Const 4); S.Star ]))

let test_element_binding_restriction () =
  let prog =
    Helpers.compile
      {|program e;
var g : array[8, 8] of int;
var k : int;
procedure bump(var x : int);
begin
  x := x + 1;
end;
begin
  call bump(g[k, 3]);
end.|}
  in
  let t = Sections.Analyze_sections.run prog in
  let sid = (List.hd (Ir.Prog.sites_of prog prog.Ir.Prog.main)).Ir.Prog.sid in
  let m = Sections.Analyze_sections.mod_of_site t sid in
  let k = Helpers.var_id prog "k" in
  Alcotest.(check bool) "single element g(k, 3)" true
    (S.equal
       (Sections.Secmap.get m (Helpers.var_id prog "g"))
       (sec [ ex (S.Affine { var = k; offset = 0 }); ex c3 ]))

(* --- properties on random kernel programs --- *)

let arb_kernels =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "kernels seed %d" seed)
    QCheck.Gen.(0 -- 5_000)

let kernels_of seed = Workload.Arrays.generate ~seed ~n_kernels:(4 + (seed mod 8))

let prop_flatten_matches_bits seed =
  let prog = kernels_of seed in
  let sec_t = Sections.Analyze_sections.run prog in
  let bit_t = Core.Analyze.run prog in
  let ok = ref true in
  for pid = 0 to Ir.Prog.n_procs prog - 1 do
    if
      not
        (Bitvec.equal
           (Sections.Secmap.to_bits sec_t.Sections.Analyze_sections.gmod.(pid))
           bit_t.Core.Analyze.gmod.(pid))
    then ok := false;
    if
      not
        (Bitvec.equal
           (Sections.Secmap.to_bits sec_t.Sections.Analyze_sections.guse.(pid))
           bit_t.Core.Analyze.guse.(pid))
    then ok := false
  done;
  !ok

let prop_tarjan_equals_iterative seed =
  let prog = kernels_of seed in
  let t = Sections.Analyze_sections.run prog in
  let oracle =
    Sections.Gmod_sections.solve_iterative t.Sections.Analyze_sections.info
      t.Sections.Analyze_sections.call
      ~immutable:t.Sections.Analyze_sections.immutable
      ~seed:t.Sections.Analyze_sections.imod_plus
  in
  Array.for_all2 Sections.Secmap.equal t.Sections.Analyze_sections.gmod oracle

let prop_rsd_flatten_matches_rmod seed =
  let prog = kernels_of seed in
  let t = Sections.Analyze_sections.run prog in
  let bit = Helpers.pipeline prog in
  let ok = ref true in
  for node = 0 to Callgraph.Binding.n_nodes bit.Helpers.binding - 1 do
    let vid = Callgraph.Binding.var bit.Helpers.binding node in
    let sec = Sections.Rsmod.section_of t.Sections.Analyze_sections.rsmod vid in
    let has_section = not (S.equal sec S.bottom) in
    if has_section <> bit.Helpers.rmod.Core.Rmod.rmod.(node) then ok := false
  done;
  !ok

let prop_cycle_condition seed =
  (* §6's third property: g_e never enlarges a section it maps around
     a cycle — equivalently every rsd value is ⊒ its own image joined
     in, which the fixpoint guarantees; check fixpoint stability. *)
  let prog = kernels_of seed in
  let t = Sections.Analyze_sections.run prog in
  let rs = t.Sections.Analyze_sections.rsmod in
  let binding = t.Sections.Analyze_sections.binding in
  let info = t.Sections.Analyze_sections.info in
  let ok = ref true in
  Graphs.Digraph.iter_edges binding.Callgraph.Binding.graph (fun e m n ->
      let { Callgraph.Binding.site; arg_pos; _ } = binding.Callgraph.Binding.edges.(e) in
      let site = Ir.Prog.site prog site in
      let callee_section = rs.Sections.Rsmod.rsd.(n) in
      if not (S.equal callee_section S.bottom) then begin
        let _, induced =
          Sections.Bindfn.project info ~site ~arg_pos
            ~caller_unstable:
              t.Sections.Analyze_sections.imod_flat.(site.Ir.Prog.caller)
            ~callee_section
        in
        if not (S.leq induced rs.Sections.Rsmod.rsd.(m)) then ok := false
      end);
  !ok

(* --- dependence verdicts --- *)

let test_deps () =
  let ivar = 100 in
  let row_i = sec [ ex (S.Affine { var = ivar; offset = 0 }); S.Star ] in
  let row_i1 = sec [ ex (S.Affine { var = ivar; offset = 1 }); S.Star ] in
  Alcotest.(check bool) "row i vs row i independent" true
    (Sections.Deps.loop_independent ~ivar row_i row_i);
  Alcotest.(check bool) "row i vs row i+1 conflict" false
    (Sections.Deps.loop_independent ~ivar row_i row_i1);
  Alcotest.(check bool) "row i vs whole conflict" false
    (Sections.Deps.loop_independent ~ivar row_i (S.whole ~rank:2));
  Alcotest.(check bool) "bottom independent" true
    (Sections.Deps.loop_independent ~ivar row_i S.bottom)

(* A loop whose body both writes and reads a shared scalar trips the
   conflict detector several ways (mod/mod and mod/use); the verdict
   must still list each (variable, reason) pair exactly once, sorted —
   the canonical form downstream consumers (the lint engine's one
   finding per pair) rely on. *)
let test_conflicts_deduped () =
  let prog =
    Helpers.compile
      {|program dedup;
var n, i, total : int;
var a : array[8] of int;

procedure bump(var cell : int);
begin
  total := total + cell;
  cell := total;
end;

begin
  n := 8;
  for i := 1 to n do
    call bump(a[i]);
  end;
  write total;
end.|}
  in
  let t = Sections.Analyze_sections.run prog in
  let main = Ir.Prog.proc prog prog.Ir.Prog.main in
  let ivar, body =
    match
      List.find_map
        (function
          | Ir.Stmt.For (iv, _, _, body) -> Some (iv, body)
          | _ -> None)
        main.Ir.Prog.body
    with
    | Some l -> l
    | None -> Alcotest.fail "no loop in main"
  in
  let mod_map, use_map =
    Sections.Analyze_sections.loop_summary t ~proc:prog.Ir.Prog.main ~ivar
      ~body
  in
  let v = Sections.Deps.analyze_loop prog ~ivar ~mod_map ~use_map in
  Alcotest.(check bool) "conflicting" false v.Sections.Deps.parallel;
  Alcotest.(check bool) "non-empty" true (v.Sections.Deps.conflicts <> []);
  Alcotest.(check bool) "deduplicated and sorted" true
    (v.Sections.Deps.conflicts
    = List.sort_uniq compare v.Sections.Deps.conflicts)

(* --- bit-identity golden ---

   Digests of the sectioned report and of the §6 lint verdicts
   (SFX006/SFX007) on seeded generated programs, one program of every
   §6 shape and two sample programs.  They were recorded with the
   earlier, quadratic form of the chain; any change to what the chain
   computes changes a digest. *)

(* Every §6 shape in one program: row writers reached directly and
   through a forwarder, a global array indexed by a formal (widened when
   it crosses a call edge) and by an immutable global (kept), element
   bindings, and loops around calls with both verdicts. *)
let sections_shapes =
  {|program golden;
var n, k, total, i : int;
var g : array[8, 8] of int;
var h : array[8] of int;

procedure wrow(var a : array[8, 8] of int; r : int);
var j : int;
begin
  for j := 1 to n do
    a[r, j] := j;
  end;
end;

procedure fwd(var a : array[8, 8] of int; r : int);
begin
  call wrow(a, r + 1);
end;

procedure gcol(c : int);
var j : int;
begin
  for j := 1 to n do
    g[j, c] := total;
  end;
end;

procedure gk(c : int);
begin
  g[k, c] := 1;
  h[k] := h[k + 1];
end;

procedure outer(c : int);
begin
  call gk(c + 1);
end;

procedure bump(var e : int);
begin
  e := e + 1;
end;

procedure rd(r : int);
var j : int;
begin
  for j := 1 to n do
    total := total + g[r, j];
  end;
end;

begin
  n := 8;
  for i := 1 to n do
    call wrow(g, i);
  end;
  for i := 1 to n do
    call fwd(g, i);
  end;
  for i := 1 to n do
    call gcol(i);
  end;
  for i := 1 to n do
    call bump(h[i]);
  end;
  for i := 1 to n do
    call rd(i);
  end;
  call gk(3);
  call outer(4);
  write total;
end.|}

let golden_programs =
  let gen fam f n = (Printf.sprintf "%s n=%d" fam n, fun () -> f ~seed:3 ~n) in
  let file name =
    ( name,
      fun () ->
        let path = Filename.concat "../programs" name in
        Frontend.Sema.compile_exn ~file:path
          (In_channel.with_open_bin path In_channel.input_all) )
  in
  List.concat_map
    (fun n ->
      [
        gen "fortran_style" Workload.Families.fortran_style n;
        gen "fortran_fixed" Workload.Families.fortran_fixed n;
        gen "dag_style" Workload.Families.dag_style n;
      ])
    [ 16; 32; 64 ]
  @ List.map
      (fun k ->
        ( Printf.sprintf "array kernels k=%d" k,
          fun () -> Workload.Arrays.generate ~seed:3 ~n_kernels:k ))
      [ 8; 24 ]
  @ [
      ("sections shapes", fun () -> Helpers.compile sections_shapes);
      file "stencil.mp";
      file "lint_demo.mp";
    ]

(* The report digest, plus the exact [sections.joins] each sectioned
   findgmod side performs. *)
let report_digest prog =
  let report, span =
    Obs.Span.collect "golden" (fun () -> Sections.Analyze_sections.run prog)
  in
  let joins side =
    Obs.Span.metric (Option.get (Obs.Span.find span side)) "sections.joins"
  in
  ( Digest.to_hex
      (Digest.string (Fmt.str "%a" Sections.Analyze_sections.pp_report report)),
    (joins "sections.gmod", joins "sections.guse") )

let loop_findings ?pool prog =
  Lint.Engine.run ?pool (Core.Analyze.run prog)
  |> List.filter (fun d ->
         List.mem d.Lint.Diagnostic.code [ "SFX006"; "SFX007" ])
  |> List.map (Fmt.str "%a" Lint.Diagnostic.pp)
  |> String.concat "\n"

(* (program, report digest, SFX006/SFX007 digest, sections.gmod and
   sections.guse joins); the generated
   fortran/dag families have no loops around calls, so they have no
   verdicts. *)
let no_verdicts = Digest.to_hex (Digest.string "")

let golden_digests =
  [
    ("fortran_style n=16", "1e36d16b8599039ee7d1ffca7bed2644", no_verdicts, (551, 650));
    ("fortran_fixed n=16", "2fa4ab149a54cd80c16162eb766769b7", no_verdicts, (887, 1640));
    ("dag_style n=16", "460084a6a008c579520d8e6f60cc7855", no_verdicts, (568, 654));
    ("fortran_style n=32", "31f3d1257fdc419bc427f8bda4065a46", no_verdicts, (1642, 1728));
    ("fortran_fixed n=32", "8f5b45d15e2cfb8418c675da9124b431", no_verdicts, (3400, 4496));
    ("dag_style n=32", "29b750b40ae4a771c429915f8593668e", no_verdicts, (1314, 1353));
    ("fortran_style n=64", "1fc9b5857492770eaabe28c0a4caaca7", no_verdicts, (4248, 4529));
    ("fortran_fixed n=64", "1d2427a3d85f1a6359d3a3e60f1b944a", no_verdicts, (8023, 11876));
    ("dag_style n=64", "f8fc4c42c7cdefabbbc0be6b18dfc5be", no_verdicts, (2952, 3947));
    ( "array kernels k=8",
      "a9af09e5a1945ce309f08a8f9dbf4db9",
      "6999d3a65537930a253a45af7429f8ef",
      (0, 5) );
    ( "array kernels k=24",
      "8ade2ec2627dd7aa6fc5fc2c4c8be865",
      "362216ed90cde1cbc83111d8d6fdd406",
      (2, 24) );
    ( "sections shapes",
      "3551f24d6dc076bf727e6673e99ab9f8",
      "f7477801e7c2d2b29b5e0604a6380d88",
      (8, 14) );
    ( "stencil.mp",
      "36b006aa440f15fa8f4542fe3077d804",
      "0ec033bfe3ee4240f01cf8176d9bba9b",
      (1, 4) );
    ( "lint_demo.mp",
      "dbe8ffd9c026d8e8b1b41b64128ddf16",
      "ba269f6b2b6e2e04c1e55e1e6535dc61",
      (2, 1) );
  ]

let test_golden_digests () =
  List.iter
    (fun (name, make) ->
      let prog = make () in
      let got_report, (got_gmod, got_guse) = report_digest prog in
      let got_lint = Digest.to_hex (Digest.string (loop_findings prog)) in
      let _, report, lint, (gmod, guse) =
        List.find (fun (n, _, _, _) -> n = name) golden_digests
      in
      Alcotest.(check string) (name ^ " report") report got_report;
      Alcotest.(check string) (name ^ " SFX006/SFX007") lint got_lint;
      Alcotest.(check int) (name ^ " sections.gmod joins") gmod got_gmod;
      Alcotest.(check int) (name ^ " sections.guse joins") guse got_guse)
    golden_programs;
  (* Figure 2 folds a [v -> v] edge like any other; the joins pin it. *)
  Alcotest.(check bool) "corpus has self-recursive calls" true
    (List.exists (fun (_, make) -> Helpers.self_recursive (make ())) golden_programs)

let test_golden_pool_invariant () =
  let pool = Par.Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (name, make) ->
      let prog = make () in
      Alcotest.(check string) (name ^ " jobs 1 = jobs 4")
        (loop_findings prog) (loop_findings ~pool prog))
    golden_programs

(* --- op-count growth ---

   The sectioned chain must stay linear in the paper's cost units: the
   bit-vector words it touches and the section joins its solvers
   perform.  fortran_style scales its globals with the procedure count,
   so 4x the procedures means ~4x the call edges and ~4x the vector
   length: O(E·V) work grows ~16x.  Measured at these seeds: 9.2x word
   ops, 11.0x joins.  Before the whole-program facts were derived once
   per run, re-deriving IMOD per lookup made the word ops grow 46x. *)
let sections_ops n =
  let prog = Workload.Families.fortran_style ~seed:1 ~n in
  let since = Obs.Metric.snapshot () in
  ignore (Sections.Analyze_sections.run prog);
  let d = Obs.Metric.delta ~since in
  (List.assoc "bitvec.word_ops" d, List.assoc "sections.joins" d)

let test_op_growth () =
  let w64, j64 = sections_ops 64 and w256, j256 = sections_ops 256 in
  let ratio a b = float_of_int b /. float_of_int a in
  let check what bound a b =
    if a <= 0 || ratio a b > bound then
      Alcotest.failf "%s: %d at n=64, %d at n=256 (%.1fx > %.0fx)" what a b
        (ratio a b) bound
  in
  check "bitvec.word_ops" 12. w64 w256;
  check "sections.joins" 14. j64 j256

let () =
  Helpers.run "sections"
    [
      ( "lattice",
        [
          Alcotest.test_case "join table (figure 3)" `Quick test_join_table;
          Alcotest.test_case "order" `Quick test_leq;
          Alcotest.test_case "intersection test" `Quick test_intersects;
          Alcotest.test_case "rank mismatch" `Quick test_rank_mismatch;
          Helpers.qtest "join commutative" arb_pair prop_join_comm;
          Helpers.qtest "join idempotent" arb_pair prop_join_idem;
          Helpers.qtest "join associative" arb_triple prop_join_assoc;
          Helpers.qtest "leq reflexive" arb_pair prop_leq_reflexive;
          Helpers.qtest "leq antisymmetric" arb_pair prop_leq_antisym;
          Helpers.qtest "join is an upper bound" arb_pair prop_join_is_lub;
          Helpers.qtest "intersects monotone" arb_pair prop_intersects_monotone;
        ] );
      ( "local",
        [
          Alcotest.test_case "lrsd rows and elements" `Quick test_lrsd;
          Alcotest.test_case "atomize" `Quick test_atomize;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "per-site sections" `Quick test_site_sections;
          Alcotest.test_case "forwarding chain keeps rows" `Quick test_rsd_chain;
          Alcotest.test_case "element binding restricts" `Quick
            test_element_binding_restriction;
          Helpers.qtest ~count:60 "flattening = bit analysis" arb_kernels
            prop_flatten_matches_bits;
          Helpers.qtest ~count:60 "sectioned findgmod = chaotic" arb_kernels
            prop_tarjan_equals_iterative;
          Helpers.qtest ~count:60 "rsd flattening = RMOD" arb_kernels
            prop_rsd_flatten_matches_rmod;
          Helpers.qtest ~count:60 "fixpoint stable under g_e" arb_kernels
            prop_cycle_condition;
        ] );
      ( "dependence",
        [
          Alcotest.test_case "loop independence verdicts" `Quick test_deps;
          Alcotest.test_case "conflicts deduplicated and sorted" `Quick
            test_conflicts_deduped;
        ] );
      ( "golden",
        [
          Alcotest.test_case "report and loop verdict digests" `Quick
            test_golden_digests;
          Alcotest.test_case "loop verdicts identical on a 4-job pool" `Quick
            test_golden_pool_invariant;
        ] );
      ( "cost",
        [
          Alcotest.test_case "word ops and joins grow linearly" `Quick
            test_op_growth;
        ] );
    ]
