(* Semantic analysis tests: scoping, shadowing, typing, id layout,
   diagnostics, and validation of the produced IR. *)

let compile = Helpers.compile

let errors_contain src frag =
  let msgs = Helpers.compile_errors src in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  if msgs = [] then Alcotest.failf "expected a diagnostic mentioning %S" frag;
  if not (List.exists (fun m -> contains m frag) msgs) then
    Alcotest.failf "diagnostics %a lack %S" Fmt.(Dump.list string) msgs frag

(* --- id layout and structure --- *)

let test_layout () =
  let p =
    compile
      {|program m;
var g1, g2 : int;
procedure a(var x : int; y : int);
var t : int;
begin
  t := y;
  x := t;
end;
procedure b();
begin
  call a(g1, g2);
end;
begin
  call b();
end.|}
  in
  Ir.Validate.check_exn p;
  Alcotest.(check int) "main pid" 0 p.Ir.Prog.main;
  Alcotest.(check string) "main name" "m" (Ir.Prog.proc p 0).Ir.Prog.pname;
  Alcotest.(check int) "procs" 3 (Ir.Prog.n_procs p);
  Alcotest.(check int) "vars: 2 globals + 3 in a" 5 (Ir.Prog.n_vars p);
  Alcotest.(check int) "sites" 2 (Ir.Prog.n_sites p);
  (* globals first *)
  Alcotest.(check bool) "g1 global" true (Ir.Prog.is_global (Ir.Prog.var p 0));
  Alcotest.(check bool) "g2 global" true (Ir.Prog.is_global (Ir.Prog.var p 1));
  let a = Option.get (Ir.Prog.find_proc p "a") in
  Alcotest.(check int) "a has 2 formals" 2 (Array.length a.Ir.Prog.formals);
  Alcotest.(check bool) "x by ref" true
    (Ir.Prog.is_ref_formal (Ir.Prog.var p a.Ir.Prog.formals.(0)));
  Alcotest.(check bool) "y by value" false
    (Ir.Prog.is_ref_formal (Ir.Prog.var p a.Ir.Prog.formals.(1)))

let test_site_table () =
  let p =
    compile
      {|program m;
var g : int;
procedure f(var x : int);
begin
  x := 1;
end;
begin
  call f(g);
  call f(g);
end.|}
  in
  let sites = Ir.Prog.sites_of p p.Ir.Prog.main in
  Alcotest.(check int) "two sites in main" 2 (List.length sites);
  List.iter
    (fun s ->
      Alcotest.(check int) "caller is main" 0 s.Ir.Prog.caller;
      Alcotest.(check string) "callee f" "f"
        (Ir.Prog.proc p s.Ir.Prog.callee).Ir.Prog.pname)
    sites

(* --- scoping --- *)

let test_shadowing () =
  let p =
    compile
      {|program m;
var x : int;
procedure f(var x : int);
begin
  x := 1;
end;
procedure g();
var x : int;
begin
  x := 2;
end;
begin
  x := 3;
end.|}
  in
  Ir.Validate.check_exn p;
  (* three distinct variables named x *)
  let f_x = Helpers.var_id p "f.x" in
  let g_x = Helpers.var_id p "g.x" in
  let glob_x = Helpers.var_id p "x" in
  Alcotest.(check bool) "distinct" true
    (f_x <> g_x && g_x <> glob_x && f_x <> glob_x);
  (* each assignment hits its own x *)
  let target pname =
    let pr = Option.get (Ir.Prog.find_proc p pname) in
    match pr.Ir.Prog.body with
    | [ Ir.Stmt.Assign (Ir.Expr.Lvar v, _) ] -> v
    | _ -> Alcotest.fail "unexpected body"
  in
  Alcotest.(check int) "f assigns f.x" f_x (target "f");
  Alcotest.(check int) "g assigns g.x" g_x (target "g")

let test_nested_scoping () =
  let p =
    compile
      {|program m;
var g : int;
procedure outer(var a : int);
var v : int;
  procedure inner();
  begin
    v := a + g;
  end;
begin
  call inner();
end;
begin
  call outer(g);
end.|}
  in
  Ir.Validate.check_exn p;
  let inner = Option.get (Ir.Prog.find_proc p "inner") in
  Alcotest.(check int) "inner level" 2 inner.Ir.Prog.level;
  Alcotest.(check bool) "outer.v visible in inner" true
    (Ir.Prog.visible p ~proc:inner.Ir.Prog.pid ~var:(Helpers.var_id p "outer.v"))

let test_sibling_calls () =
  (* Mutually recursive siblings, forward reference allowed. *)
  let p =
    compile
      {|program m;
procedure even();
begin
  call odd();
end;
procedure odd();
begin
  call even();
end;
begin
  call even();
end.|}
  in
  Ir.Validate.check_exn p;
  Alcotest.(check int) "three sites" 3 (Ir.Prog.n_sites p)

let test_ancestor_call () =
  let p =
    compile
      {|program m;
procedure outer();
  procedure inner();
  begin
    call outer();
  end;
begin
  call inner();
end;
begin
  call outer();
end.|}
  in
  Ir.Validate.check_exn p;
  Alcotest.(check int) "sites" 3 (Ir.Prog.n_sites p)

let test_call_into_nest_rejected () =
  errors_contain
    {|program m;
procedure outer();
  procedure inner();
  begin
    skip;
  end;
begin
  skip;
end;
begin
  call inner();
end.|}
    "unknown procedure 'inner'"

(* --- diagnostics --- *)

let test_diagnostics () =
  errors_contain "program m; begin x := 1; end." "unknown variable 'x'";
  errors_contain "program m; begin call f(); end." "unknown procedure 'f'";
  errors_contain "program m; var x, x : int; begin end." "duplicate global 'x'";
  errors_contain
    "program m; procedure f(var x : int; x : int); begin end; begin call f(1, 2); end."
    "duplicate declaration of 'x'";
  errors_contain
    "program m; procedure f(); begin end; procedure f(); begin end; begin end."
    "already used";
  errors_contain "program m; var b : bool; begin b := 1; end." "expected type bool";
  errors_contain "program m; var x : int; begin if x then skip; end; end."
    "expected type bool";
  errors_contain "program m; var a : array[2] of int; begin a := 1; end."
    "whole array 'a' cannot be assigned";
  errors_contain "program m; var a : array[2] of int; begin a[1, 2] := 1; end."
    "rank 1 but 2 subscripts";
  errors_contain "program m; var x : int; begin x[1] := 1; end."
    "scalar 'x' cannot be indexed";
  errors_contain "program m; var a : array[2] of int; var x : int; begin x := a + 1; end."
    "array 'a' cannot be read as a scalar";
  errors_contain
    "program m; procedure f(a : array[2] of int); begin end; begin end."
    "must be passed by reference";
  errors_contain
    {|program m;
var x : int;
procedure f(var y : int);
begin
  y := 1;
end;
begin
  call f(x + 1);
end.|}
    "must be a variable, an array element, or a pointer dereference";
  errors_contain
    {|program m;
var b : bool;
procedure f(var y : int);
begin
  y := 1;
end;
begin
  call f(b);
end.|}
    "cannot bind to 'var' parameter";
  errors_contain
    "program m; procedure f(x : int); begin end; begin call f(); end."
    "expects 1 argument(s), got 0";
  errors_contain "program m; var b : bool; begin for b := 1 to 2 do skip; end; end."
    "loop variable 'b' must be int";
  errors_contain "program m; var a : array[0] of int; begin end."
    "extent 0 is not positive"

let test_multiple_errors_reported () =
  let msgs =
    Helpers.compile_errors
      "program m; begin x := 1; y := 2; call f(); end."
  in
  Alcotest.(check int) "three diagnostics" 3 (List.length msgs)

(* --- front-end digest golden ---

   Digests of everything the front end hands downstream: the resolved
   program with its Locs table, or the diagnostics' text.  The corpus
   is every sample program, the workload families as rendered by
   Ir.Pp, and 2000 token-soup strings drawn from a fixed seed (a golden
   must not follow QCHECK_SEED).  Soup fragments are whole tokens, so
   every soup diagnostic is a syntax or semantic one.  Any change to a
   resolved id, a type, a statement, a source position or an error
   message changes a digest. *)

let compile_digest ~file src =
  let payload =
    match Frontend.Sema.compile_with_locs ~file src with
    | Ok (prog, locs) -> Marshal.to_string (prog, locs) [ Marshal.No_sharing ]
    | Error errs ->
      String.concat "\n" (List.map (Fmt.to_to_string Frontend.Sema.pp_error) errs)
  in
  Digest.to_hex (Digest.string payload)

let frontend_corpus () =
  let file dir name =
    let path = Filename.concat dir name in
    (name, fun () -> compile_digest ~file:path (In_channel.with_open_bin path In_channel.input_all))
  in
  let fam name prog = (name, fun () -> compile_digest ~file:name (Ir.Pp.to_string (prog ()))) in
  let module F = Workload.Families in
  let sources dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mp")
    |> List.sort compare |> List.map (file dir)
  in
  let soup () =
    let srcs =
      QCheck.Gen.generate ~rand:(Random.State.make [| 27 |]) ~n:2000 Helpers.token_soup_gen
    in
    Digest.to_hex
      (Digest.string (String.concat "," (List.map (compile_digest ~file:"<soup>") srcs)))
  in
  sources "../programs" @ sources "../examples"
  @ [
      fam "fortran_fixed 64" (fun () -> F.fortran_fixed ~seed:1 ~n:64);
      fam "fortran_style 64" (fun () -> F.fortran_style ~seed:1 ~n:64);
      fam "dag_style 64" (fun () -> F.dag_style ~seed:1 ~n:64);
      fam "pascal_style 64 d4" (fun () -> F.pascal_style ~seed:1 ~n:64 ~depth:4);
      fam "ptr_chain 16" (fun () -> F.ptr_chain 16);
      fam "ptr_funnel 16" (fun () -> F.ptr_funnel 16);
      fam "ptr_heap 16" (fun () -> F.ptr_heap 16);
      ("token soup 2000", soup);
    ]

let frontend_digests =
  [
    ("bank.mp", "f30ffc401286b07ec7dffac5182f0e8c");
    ("dataflow_demo.mp", "4554615fca0c3ed696b1fb59c50db12f");
    ("lint_demo.mp", "fdc86ad47eb31c08f22a7f2b684bff98");
    ("mustmod_demo.mp", "34bcc06369f62edd826a3b5df75604e4");
    ("pipeline.mp", "c712b4983db029b6433f6297472f47c1");
    ("pointers.mp", "2964bf6618be7f26144be907cca3edf3");
    ("ptr_lint.mp", "6532358a4be572307d0b4c3463890a7d");
    ("report.mp", "f519c721008e880a521b90bc6b0caeb6");
    ("stencil.mp", "d3f13ed857b8362da10922b56ecd0f1d");
    ("profile_demo.mp", "80eb05bbb1d5cced7575863f06a68a44");
    ("fortran_fixed 64", "cdaf8f050d6aa3979d146333fa672d93");
    ("fortran_style 64", "6f6c1b444808bfeb315090c75578bec5");
    ("dag_style 64", "831575fd53374c3a7f9a5b323379f83b");
    ("pascal_style 64 d4", "9baf6b9279fe1b27df35d363b6295410");
    ("ptr_chain 16", "1f2bc1b06100b21effec32ab34044077");
    ("ptr_funnel 16", "bf725ed62419438e1baba4b846520162");
    ("ptr_heap 16", "732767c13400c346528eff3bbb588d5e");
    ("token soup 2000", "c29f61a11604e73d74e2693552e9a226");
  ]

let test_frontend_golden () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) name (List.assoc name frontend_digests) (digest ()))
    (frontend_corpus ())

(* --- whole-program validation under qcheck --- *)

let prop_sema_output_validates seed =
  let prog = Helpers.flat_of_seed seed in
  let reparsed = Frontend.Sema.compile_exn ~file:"v" (Ir.Pp.to_string prog) in
  Ir.Validate.run reparsed = Ok ()

let () =
  Helpers.run "sema"
    [
      ( "structure",
        [
          Alcotest.test_case "id layout" `Quick test_layout;
          Alcotest.test_case "site table" `Quick test_site_table;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "shadowing" `Quick test_shadowing;
          Alcotest.test_case "nested visibility" `Quick test_nested_scoping;
          Alcotest.test_case "mutually recursive siblings" `Quick test_sibling_calls;
          Alcotest.test_case "calling an ancestor" `Quick test_ancestor_call;
          Alcotest.test_case "nested procs invisible outside" `Quick
            test_call_into_nest_rejected;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "each kind of error" `Quick test_diagnostics;
          Alcotest.test_case "multiple errors in one pass" `Quick
            test_multiple_errors_reported;
        ] );
      ( "golden",
        [ Alcotest.test_case "compile_with_locs digests" `Quick test_frontend_golden ] );
      ( "validation",
        [
          Helpers.qtest ~count:50 "sema output validates" Helpers.arb_flat_prog
            prop_sema_output_validates;
        ] );
    ]
