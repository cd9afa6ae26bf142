(* Parser tests: grammar coverage, expression precedence, error
   reporting, and print/reparse stability through the front end. *)

module P = Frontend.Parser
module A = Frontend.Ast
module E = Ir.Expr

let parse_expr src =
  match P.parse_expr src with
  | Ok e -> e
  | Error (loc, msg) -> Alcotest.failf "parse_expr %S: %s: %s" src (Frontend.Loc.to_string loc) msg

(* Structure of surface expressions, written compactly for comparison. *)
let rec sexp (e : A.expr) =
  match e with
  | A.Int (n, _) -> string_of_int n
  | A.Bool (b, _) -> string_of_bool b
  | A.Name id -> id.A.name
  | A.Index (id, idx) ->
    Printf.sprintf "%s[%s]" id.A.name (String.concat "," (List.map sexp idx))
  | A.Binop (op, l, r) ->
    Printf.sprintf "(%s %s %s)" (sexp l)
      (Fmt.to_to_string E.pp_binop op)
      (sexp r)
  | A.Unop (E.Neg, e) -> Printf.sprintf "(- %s)" (sexp e)
  | A.Unop (E.Not, e) -> Printf.sprintf "(not %s)" (sexp e)
  | A.Addr id -> Printf.sprintf "(& %s)" id.A.name
  | A.Deref (d, id) -> Printf.sprintf "(%s %s)" (String.make d '*') id.A.name
  | A.New (_, _) -> "(new)"

let check_expr src expected =
  Alcotest.(check string) src expected (sexp (parse_expr src))

let test_precedence () =
  check_expr "1 + 2 * 3" "(1 + (2 * 3))";
  check_expr "1 * 2 + 3" "((1 * 2) + 3)";
  check_expr "(1 + 2) * 3" "((1 + 2) * 3)";
  check_expr "1 - 2 - 3" "((1 - 2) - 3)";
  check_expr "1 + 2 < 3 * 4" "((1 + 2) < (3 * 4))";
  check_expr "a < 1 and b > 2 or c == 3"
    "(((a < 1) and (b > 2)) or (c == 3))";
  check_expr "not a < 1" "((not a) < 1)";
  check_expr "-x + 1" "((- x) + 1)";
  check_expr "- -x" "(- (- x))";
  check_expr "a[i + 1, j]" "a[(i + 1),j]";
  check_expr "1 % 2 / 3" "((1 % 2) / 3)"

let parse_ok src =
  match P.parse ~file:"t.mp" src with
  | Ok p -> p
  | Error (loc, msg) -> Alcotest.failf "%s: %s" (Frontend.Loc.to_string loc) msg

let parse_err src =
  match P.parse ~file:"t.mp" src with
  | Ok _ -> Alcotest.failf "expected parse error for %S" src
  | Error (_, msg) -> msg

let test_minimal_program () =
  let p = parse_ok "program p; begin end." in
  Alcotest.(check string) "name" "p" p.A.prog_name.A.name;
  Alcotest.(check int) "no globals" 0 (List.length p.A.globals);
  Alcotest.(check int) "no procs" 0 (List.length p.A.top_procs);
  Alcotest.(check int) "empty body" 0 (List.length p.A.main_body)

let test_full_grammar () =
  let p =
    parse_ok
      {|program full;
var a, b : int;
var flag : bool;
var m : array[3, 4] of int;
procedure q(var x : int; y : int; var z : array[3, 4] of int);
var t : int;
begin
  skip;
  t := y + 1;
  x := t;
  z[1, t] := x;
  if t < 3 then
    write t;
  else
    read x;
  end;
  while t > 0 do
    t := t - 1;
  end;
  for t := 1 to 10 do
    skip;
  end;
  call q(x, t, z);
end;
begin
  flag := true;
  if flag then
    call q(a, b, m);
  end;
end.|}
  in
  Alcotest.(check int) "three global decls" 3 (List.length p.A.globals);
  Alcotest.(check int) "one proc" 1 (List.length p.A.top_procs);
  let q = List.hd p.A.top_procs in
  Alcotest.(check int) "three params" 3 (List.length q.A.params);
  (match q.A.params with
  | [ x; y; z ] ->
    Alcotest.(check bool) "x by ref" true (x.A.p_mode = Ir.Prog.By_ref);
    Alcotest.(check bool) "y by value" true (y.A.p_mode = Ir.Prog.By_value);
    Alcotest.(check bool) "z array by ref" true
      (z.A.p_mode = Ir.Prog.By_ref && z.A.p_ty = A.Ty_array [ 3; 4 ])
  | _ -> Alcotest.fail "params");
  Alcotest.(check int) "q body statements" 8 (List.length q.A.body)

let test_nested_procs () =
  let p =
    parse_ok
      {|program n;
procedure outer();
  procedure inner();
  begin
    skip;
  end;
begin
  call inner();
end;
begin
  call outer();
end.|}
  in
  let outer = List.hd p.A.top_procs in
  Alcotest.(check int) "one nested" 1 (List.length outer.A.procs);
  Alcotest.(check string) "inner name" "inner"
    (List.hd outer.A.procs).A.proc_name.A.name

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_err src frag =
  let msg = parse_err src in
  if not (contains msg frag) then Alcotest.failf "error %S lacks %S" msg frag

let test_errors () =
  check_err "program; begin end." "program name";
  check_err "program p begin end." "';'";
  check_err "program p; begin end" "'.'";
  check_err "program p; begin x := ; end." "expression";
  check_err "program p; begin x = 1; end." "unexpected character";
  check_err "program p; begin if x then end." "';'";
  (* the branch's 'end' closes the if, so the parser next wants ';' *)
  check_err "program p; var x : array[] of int; begin end." "array extent";
  check_err "program p; begin call f(; end." "expression";
  check_err "program p; begin while x do skip; end." "';'";
  check_err "program p; x := 1; begin end." "'begin'"

let test_empty_if_branch_ok () =
  (* An if with only skips parses. *)
  ignore (parse_ok "program p; begin if true then skip; end; end.")

(* The parser pulls tokens on demand, so the first error in source
   order is reported, whether it is a syntax or a lexical one. *)
let test_first_error_in_source_order () =
  let check src (line, col) fragment =
    match P.parse ~file:"t.mp" src with
    | Ok _ -> Alcotest.failf "expected an error for %S" src
    | Error (loc, msg) ->
      Alcotest.(check (pair int int)) src (line, col) (loc.Frontend.Loc.line, loc.Frontend.Loc.col);
      if not (contains msg fragment) then
        Alcotest.failf "%S: error %S does not mention %S" src msg fragment
  in
  check "program p; begin x := ; end. @" (1, 23) "expected an expression";
  check "program p; begin x := @; end." (1, 23) "unexpected character '@'";
  check "program p; @ begin x := ; end." (1, 12) "unexpected character '@'";
  check "program p; begin x := ; end. (* never closed" (1, 23) "expected an expression";
  check "program p; begin end.\n(* never closed" (2, 1) "unterminated comment";
  check "program p; begin x := 1 2; end. 99999999999999999999999" (1, 25) "expected ';'"

let test_trailing_garbage () =
  check_err "program p; begin end. extra" "end of input"

(* Print/reparse stability on the fixed workload families. *)
let test_roundtrip_families () =
  List.iter
    (fun prog ->
      let s1 = Ir.Pp.to_string prog in
      let p2 = Frontend.Sema.compile_exn ~file:"rt" s1 in
      Alcotest.(check string) "fixed point" s1 (Ir.Pp.to_string p2))
    [
      Workload.Families.ref_chain 5;
      Workload.Families.ref_cycle 4;
      Workload.Families.global_chain 5;
      Workload.Families.mutual_pair ();
      Workload.Families.diamond ();
      Workload.Families.nested_textbook ();
    ]

(* Pointer programs print dereferences right after "(" (call actuals,
   parenthesised operands); "(*" would open a comment, so the printer
   must emit "( *p" and the reparse must give back the same program. *)
let test_roundtrip_pointer_families () =
  List.iter
    (fun (name, prog) ->
      let s = Ir.Pp.to_string prog in
      match Frontend.Sema.compile ~file:"rt" s with
      | Ok p2 -> Alcotest.(check bool) (name ^ " reparses to itself") true (p2 = prog)
      | Error _ -> Alcotest.failf "%s does not reparse:\n%s" name s)
    (List.concat_map
       (fun n ->
         [
           (Printf.sprintf "ptr_chain %d" n, Workload.Families.ptr_chain n);
           (Printf.sprintf "ptr_funnel %d" n, Workload.Families.ptr_funnel n);
           (Printf.sprintf "ptr_heap %d" n, Workload.Families.ptr_heap n);
         ])
       [ 2; 5; 16 ])

let test_print_deref_after_paren () =
  let src =
    {|program d;
var x : int;
var p : ptr of int;
procedure q(var a : int; b : int);
begin
  a := b;
end;
begin
  p := &x;
  x := ( *p + 1) * 2;
  call q( *p, *p - 1);
  call q(x, ( *p - 1) * 2);
end.|}
  in
  let prog = Frontend.Sema.compile_exn ~file:"d" src in
  let s = Ir.Pp.to_string prog in
  let rec opens_comment i =
    i + 1 < String.length s
    && ((s.[i] = '(' && s.[i + 1] = '*') || opens_comment (i + 1))
  in
  Alcotest.(check bool) "no comment opener" false (opens_comment 0);
  Alcotest.(check bool) "reparses to itself" true
    (Frontend.Sema.compile_exn ~file:"d" s = prog)

let prop_roundtrip_random seed =
  let prog = Helpers.flat_of_seed seed in
  let s1 = Ir.Pp.to_string prog in
  let p2 = Frontend.Sema.compile_exn ~file:"rt" s1 in
  String.equal s1 (Ir.Pp.to_string p2)

let prop_roundtrip_nested seed =
  let prog = Helpers.nested_of_seed seed in
  let s1 = Ir.Pp.to_string prog in
  let p2 = Frontend.Sema.compile_exn ~file:"rt" s1 in
  String.equal s1 (Ir.Pp.to_string p2)

let () =
  Helpers.run "parser"
    [
      ( "expressions",
        [ Alcotest.test_case "precedence and associativity" `Quick test_precedence ] );
      ( "programs",
        [
          Alcotest.test_case "minimal program" `Quick test_minimal_program;
          Alcotest.test_case "full statement grammar" `Quick test_full_grammar;
          Alcotest.test_case "nested procedures" `Quick test_nested_procs;
          Alcotest.test_case "empty if branch" `Quick test_empty_if_branch_ok;
        ] );
      ( "errors",
        [
          Alcotest.test_case "diagnostics" `Quick test_errors;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "first error in source order" `Quick
            test_first_error_in_source_order;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "fixed families" `Quick test_roundtrip_families;
          Alcotest.test_case "pointer families" `Quick
            test_roundtrip_pointer_families;
          Alcotest.test_case "dereference after a parenthesis" `Quick
            test_print_deref_after_paren;
          Helpers.qtest ~count:50 "random flat programs" Helpers.arb_flat_prog
            prop_roundtrip_random;
          Helpers.qtest ~count:50 "random nested programs" Helpers.arb_nested_prog
            prop_roundtrip_nested;
        ] );
    ]
