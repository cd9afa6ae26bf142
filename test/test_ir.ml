(* IR utility coverage: the navigation and query helpers every analysis
   leans on (ancestry, visibility, lookup, statement folds, types,
   expression utilities). *)

module Prog = Ir.Prog
module Expr = Ir.Expr
module Stmt = Ir.Stmt

let sample =
  Helpers.compile
    {|program m;
var g : int;
var arr : array[2, 3] of int;
procedure outer(var x : int);
var v : int;
  procedure inner(y : int);
  var w : int;
  begin
    w := y + v + g;
    call inner(w);
  end;
begin
  call inner(x);
  v := 1;
end;
procedure other();
begin
  g := 2;
end;
begin
  call outer(g);
  call other();
end.|}

let pid = Helpers.proc_id sample
let vid = Helpers.var_id sample

let test_ancestry () =
  Alcotest.(check (list int)) "ancestors of inner"
    [ pid "inner"; pid "outer"; sample.Prog.main ]
    (Prog.ancestors sample (pid "inner"));
  Alcotest.(check bool) "outer anc inner" true
    (Prog.is_ancestor sample ~anc:(pid "outer") ~desc:(pid "inner"));
  Alcotest.(check bool) "reflexive" true
    (Prog.is_ancestor sample ~anc:(pid "inner") ~desc:(pid "inner"));
  Alcotest.(check bool) "not sideways" false
    (Prog.is_ancestor sample ~anc:(pid "other") ~desc:(pid "inner"));
  Alcotest.(check int) "max level" 2 (Prog.max_level sample)

let test_visibility () =
  Alcotest.(check bool) "global visible in inner" true
    (Prog.visible sample ~proc:(pid "inner") ~var:(vid "g"));
  Alcotest.(check bool) "outer.v visible in inner" true
    (Prog.visible sample ~proc:(pid "inner") ~var:(vid "outer.v"));
  Alcotest.(check bool) "inner.w invisible in outer" false
    (Prog.visible sample ~proc:(pid "outer") ~var:(vid "inner.w"));
  Alcotest.(check bool) "inner.w invisible in other" false
    (Prog.visible sample ~proc:(pid "other") ~var:(vid "inner.w"))

let test_lookup () =
  Alcotest.(check bool) "find_proc hit" true (Prog.find_proc sample "inner" <> None);
  Alcotest.(check bool) "find_proc miss" true (Prog.find_proc sample "nope" = None);
  (* find_var resolves from a scope: w from inner, not visible from
     outer. *)
  Alcotest.(check bool) "find_var inner w" true
    (Prog.find_var sample ~proc:(pid "inner") "w" <> None);
  Alcotest.(check bool) "find_var outer w misses" true
    (Prog.find_var sample ~proc:(pid "outer") "w" = None);
  (match Prog.find_var sample ~proc:(pid "inner") "g" with
  | Some v -> Alcotest.(check bool) "g resolves to the global" true (Prog.is_global v)
  | None -> Alcotest.fail "g not found")

let test_levels () =
  Alcotest.(check int) "global level" 0 (Prog.owner_level sample (Prog.var sample (vid "g")));
  Alcotest.(check int) "outer.v level" 1
    (Prog.owner_level sample (Prog.var sample (vid "outer.v")));
  Alcotest.(check int) "inner.w level" 2
    (Prog.owner_level sample (Prog.var sample (vid "inner.w")))

let test_stmt_folds () =
  let outer = Prog.proc sample (pid "outer") in
  Alcotest.(check int) "outer body statements" 2 (Stmt.count outer.Prog.body);
  Alcotest.(check int) "one call site in outer" 1
    (List.length (Stmt.call_sites outer.Prog.body));
  let inner = Prog.proc sample (pid "inner") in
  Alcotest.(check int) "inner body statements" 2 (Stmt.count inner.Prog.body)

let test_sites_of () =
  let main_sites = Prog.sites_of sample sample.Prog.main in
  Alcotest.(check int) "main has two sites" 2 (List.length main_sites);
  List.iter
    (fun s -> Alcotest.(check int) "caller" sample.Prog.main s.Prog.caller)
    main_sites

let test_expr_utilities () =
  let e =
    Expr.Binop
      (Expr.Add, Expr.Var 3, Expr.Index (7, [ Expr.Var 3; Expr.Var 1 ]))
  in
  Alcotest.(check (list int)) "vars deduped sorted" [ 1; 3; 7 ] (Expr.vars e);
  Alcotest.(check bool) "equal reflexive" true (Expr.equal e e);
  Alcotest.(check bool) "not equal" false (Expr.equal e (Expr.Var 3));
  Alcotest.(check int) "lvalue base" 7 (Expr.lvalue_base (Expr.Lindex (7, [ Expr.Var 1 ])));
  Alcotest.(check (list int)) "lvalue index vars" [ 1 ]
    (Expr.lvalue_index_vars (Expr.Lindex (7, [ Expr.Var 1 ])))

let test_types () =
  Alcotest.(check bool) "int=int" true (Ir.Types.equal Ir.Types.Int Ir.Types.Int);
  Alcotest.(check bool) "array dims" false
    (Ir.Types.equal (Ir.Types.Array [ 2 ]) (Ir.Types.Array [ 3 ]));
  Alcotest.(check int) "rank" 2 (Ir.Types.rank (Ir.Types.Array [ 2; 3 ]));
  Alcotest.(check string) "printed" "array[2, 3] of int"
    (Ir.Types.to_string (Ir.Types.Array [ 2; 3 ]))

let test_info_views () =
  let info = Ir.Info.make sample in
  Alcotest.(check bool) "global set" true (Bitvec.get (Ir.Info.global info) (vid "g"));
  Alcotest.(check bool) "local of outer" true
    (Bitvec.get (Ir.Info.local info (pid "outer")) (vid "outer.v"));
  Alcotest.(check bool) "non_local complement" false
    (Bitvec.get (Ir.Info.non_local info (pid "outer")) (vid "outer.v"));
  Alcotest.(check bool) "visible chain" true
    (Bitvec.get (Ir.Info.visible info (pid "inner")) (vid "outer.v"));
  Alcotest.(check int) "var level" 2 (Ir.Info.var_level info (vid "inner.w"));
  Alcotest.(check bool) "level_at_most 1 excludes level 2" false
    (Bitvec.get (Ir.Info.level_at_most info 1) (vid "inner.w"));
  Alcotest.(check bool) "level_at_most 1 includes globals" true
    (Bitvec.get (Ir.Info.level_at_most info 1) (vid "g"))

let test_dot_export () =
  let call = Callgraph.Call.build sample in
  let binding = Callgraph.Binding.build (Ir.Info.make sample) in
  let dot_c = Callgraph.Dot.call_graph call in
  let dot_b = Callgraph.Dot.binding_graph binding in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("call dot has " ^ frag) true (contains dot_c frag))
    [ "digraph callgraph"; "outer"; "inner"; "level 2"; "->" ];
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("binding dot has " ^ frag) true (contains dot_b frag))
    [ "digraph binding"; "outer.x" ]

let () =
  Helpers.run "ir"
    [
      ( "navigation",
        [
          Alcotest.test_case "ancestry" `Quick test_ancestry;
          Alcotest.test_case "visibility" `Quick test_visibility;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "levels" `Quick test_levels;
          Alcotest.test_case "sites_of" `Quick test_sites_of;
        ] );
      ( "utilities",
        [
          Alcotest.test_case "statement folds" `Quick test_stmt_folds;
          Alcotest.test_case "expression helpers" `Quick test_expr_utilities;
          Alcotest.test_case "types" `Quick test_types;
          Alcotest.test_case "info views" `Quick test_info_views;
          Alcotest.test_case "dot export" `Quick test_dot_export;
        ] );
    ]
