(* Validator coverage: corrupt well-formed programs in every way
   Validate.run checks for, and assert the specific diagnostic.  The
   validator guards every generator and transformation, so its own
   checks deserve direct tests. *)

module Prog = Ir.Prog

let base =
  Helpers.compile
    {|program m;
var g : int;
var a : array[3, 3] of int;
procedure f(var x : int; y : int);
var t : int;
begin
  t := y;
  x := t + g;
  a[1, 2] := x;
end;
begin
  call f(g, 4);
end.|}

let expect_error mutate fragment =
  let prog = mutate base in
  match Ir.Validate.run prog with
  | Ok () -> Alcotest.failf "corruption accepted (wanted %S)" fragment
  | Error errs ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    if
      not
        (List.exists (fun e -> contains e.Ir.Validate.what fragment) errs)
    then
      Alcotest.failf "diagnostics %a lack %S"
        Fmt.(Dump.list (Fmt.of_to_string (fun e -> e.Ir.Validate.what)))
        errs fragment

let with_vars f prog = { prog with Prog.vars = f prog.Prog.vars }
let with_procs f prog = { prog with Prog.procs = f prog.Prog.procs }
let with_sites f prog = { prog with Prog.sites = f prog.Prog.sites }

let test_accepts_base () = Ir.Validate.check_exn base

let test_vid_mismatch () =
  expect_error
    (with_vars (fun vars ->
         let v = Array.copy vars in
         v.(0) <- { v.(0) with Prog.vid = 5 };
         v))
    "vid 5 at index 0"

let test_pid_mismatch () =
  expect_error
    (with_procs (fun procs ->
         let p = Array.copy procs in
         p.(1) <- { p.(1) with Prog.pid = 0 };
         p))
    "pid 0 at index 1"

let test_level_inconsistent () =
  expect_error
    (with_procs (fun procs ->
         let p = Array.copy procs in
         p.(1) <- { p.(1) with Prog.level = 7 };
         p))
    "level 7 but parent level 0"

let test_nested_list_broken () =
  expect_error
    (with_procs (fun procs ->
         let p = Array.copy procs in
         p.(0) <- { p.(0) with Prog.nested = [] };
         p))
    "missing from parent's nested list"

let test_local_table_broken () =
  expect_error
    (with_procs (fun procs ->
         let p = Array.copy procs in
         p.(1) <- { p.(1) with Prog.locals = [] };
         p))
    "local missing from"

let test_arity_mismatch () =
  expect_error
    (with_sites (fun sites ->
         let s = Array.copy sites in
         s.(0) <- { s.(0) with Prog.args = [| s.(0).Prog.args.(0) |] };
         s))
    "passes 1 args"

let test_mode_mismatch () =
  expect_error
    (with_sites (fun sites ->
         let s = Array.copy sites in
         let args = Array.copy s.(0).Prog.args in
         args.(0) <- Prog.Arg_value (Ir.Expr.Int 1);
         s.(0) <- { s.(0) with Prog.args };
         s))
    "value actual for ref formal"

let test_caller_wrong () =
  expect_error
    (with_sites (fun sites ->
         let s = Array.copy sites in
         s.(0) <- { s.(0) with Prog.caller = 1 };
         s))
    "records caller"

let test_dangling_site () =
  expect_error
    (with_sites (fun sites ->
         Array.append sites
           [| { Prog.sid = Array.length sites; caller = 0; callee = 1;
                args = [| Prog.Arg_ref (Ir.Expr.Lvar 0); Prog.Arg_value (Ir.Expr.Int 1) |] } |]))
    "has no call statement"

let test_visibility_violation () =
  (* Make f's body reference main's view of... inject a use of f's
     local t from main's body. *)
  let t_vid = Helpers.var_id base "f.t" in
  expect_error
    (with_procs (fun procs ->
         let p = Array.copy procs in
         p.(0) <-
           { p.(0) with
             Prog.body = Ir.Stmt.Write (Ir.Expr.Var t_vid) :: p.(0).Prog.body };
         p))
    "not visible here"

(* A procedure name is in scope only where its parent is: [b] cannot
   call [inner], which is nested in its sibling [a]. *)
let test_call_visibility () =
  let prog =
    Helpers.compile
      {|program m;
var g : int;
procedure a();
var x : int;
  procedure inner();
  begin
    x := 1;
  end;
begin
  call inner();
end;
procedure b();
begin
  g := 1;
end;
begin
  call a();
  call b();
end.|}
  in
  Ir.Validate.check_exn prog;
  let inner = Helpers.proc_id prog "inner" and b = Helpers.proc_id prog "b" in
  let a = Helpers.proc_id prog "a" in
  Helpers.check_bool "a sees its child" true
    (Prog.callable prog ~caller:a ~callee:inner);
  Helpers.check_bool "inner sees itself" true
    (Prog.callable prog ~caller:inner ~callee:inner);
  Helpers.check_bool "inner sees its parent's sibling" true
    (Prog.callable prog ~caller:inner ~callee:b);
  let bad, sid = Ir.Patch.add_call prog ~caller:b ~callee:inner ~args:[||] in
  match Ir.Validate.run bad with
  | Ok () -> Alcotest.fail "call to a sibling's nested procedure accepted"
  | Error errs ->
    Helpers.check_bool "diagnostic names the callee" true
      (List.exists
         (fun e ->
           e.Ir.Validate.what = Printf.sprintf "site %d: inner not visible here" sid)
         errs)

let test_rank_violation () =
  let a_vid = Helpers.var_id base "a" in
  expect_error
    (with_procs (fun procs ->
         let p = Array.copy procs in
         p.(0) <-
           { p.(0) with
             Prog.body =
               Ir.Stmt.Assign (Ir.Expr.Lindex (a_vid, [ Ir.Expr.Int 1 ]), Ir.Expr.Int 0)
               :: p.(0).Prog.body };
         p))
    "indexed with 1 subscripts, rank 2"

let () =
  Helpers.run "validate"
    [
      ( "corruptions",
        [
          Alcotest.test_case "base accepted" `Quick test_accepts_base;
          Alcotest.test_case "vid mismatch" `Quick test_vid_mismatch;
          Alcotest.test_case "pid mismatch" `Quick test_pid_mismatch;
          Alcotest.test_case "level inconsistent" `Quick test_level_inconsistent;
          Alcotest.test_case "nested list broken" `Quick test_nested_list_broken;
          Alcotest.test_case "locals table broken" `Quick test_local_table_broken;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "mode mismatch" `Quick test_mode_mismatch;
          Alcotest.test_case "caller mismatch" `Quick test_caller_wrong;
          Alcotest.test_case "dangling site" `Quick test_dangling_site;
          Alcotest.test_case "visibility violation" `Quick test_visibility_violation;
          Alcotest.test_case "rank violation" `Quick test_rank_violation;
          Alcotest.test_case "call visibility" `Quick test_call_visibility;
        ] );
    ]
