(* Local analysis tests: LMOD/LUSE per statement kind, IMOD/IUSE, and
   the §3.3 nesting extension. *)

let compile = Helpers.compile

let check_ids prog msg expected actual =
  Alcotest.(check (list int)) msg
    (List.sort_uniq compare (List.map (Helpers.var_id prog) expected))
    actual

let sample =
  compile
    {|program m;
var g, h : int;
var a : array[4, 4] of int;
procedure f(var x : int; y : int);
begin
  x := y;
end;
begin
  g := h + 1;
  a[g, h] := 2;
  if g < h then
    skip;
  end;
  while g > 0 do
    skip;
  end;
  for g := 1 to h do
    skip;
  end;
  read h;
  write g + h;
  call f(a[g, 1], h + g);
end.|}

let main_stmt i = List.nth (Ir.Prog.proc sample sample.Ir.Prog.main).Ir.Prog.body i
let lmod i = Frontend.Local.lmod_stmt (Ir.Info.make sample) (main_stmt i)
let luse i = Frontend.Local.luse_stmt (Ir.Info.make sample) (main_stmt i)

let test_lmod () =
  check_ids sample "assign" [ "g" ] (lmod 0);
  check_ids sample "array element assign mods whole array" [ "a" ] (lmod 1);
  check_ids sample "if itself mods nothing" [] (lmod 2);
  check_ids sample "while" [] (lmod 3);
  check_ids sample "for mods loop var" [ "g" ] (lmod 4);
  check_ids sample "read" [ "h" ] (lmod 5);
  check_ids sample "write" [] (lmod 6);
  check_ids sample "call has empty LMOD" [] (lmod 7)

let test_luse () =
  check_ids sample "assign rhs" [ "h" ] (luse 0);
  check_ids sample "array assign uses subscripts and rhs vars" [ "g"; "h" ] (luse 1);
  check_ids sample "if condition" [ "g"; "h" ] (luse 2);
  check_ids sample "while condition" [ "g" ] (luse 3);
  check_ids sample "for uses bounds and loop var" [ "g"; "h" ] (luse 4);
  check_ids sample "read uses nothing (scalar target)" [] (luse 5);
  check_ids sample "write" [ "g"; "h" ] (luse 6);
  (* call: value arg h + g evaluated, ref arg a[g, 1] subscript g. *)
  check_ids sample "call argument evaluation" [ "g"; "h" ] (luse 7)

let test_imod_flat () =
  let info = Ir.Info.make sample in
  let im = Frontend.Local.imod_flat info in
  Helpers.check_var_set sample "main IMOD" [ "g"; "h"; "a" ]
    im.(sample.Ir.Prog.main);
  Helpers.check_var_set sample "f IMOD" [ "f.x" ] im.(Helpers.proc_id sample "f")

let nested =
  compile
    {|program m;
var g : int;
procedure outer(var p : int);
var v, w : int;
  procedure mid();
  var t : int;
    procedure deep();
    begin
      v := 1;
      g := 2;
      t := 3;
    end;
  begin
    call deep();
    w := 4;
  end;
begin
  call mid();
end;
begin
  call outer(g);
end.|}

let test_nesting_extension () =
  let info = Ir.Info.make nested in
  let flat = Frontend.Local.imod_flat info in
  let ext = Frontend.Local.imod info in
  let pid = Helpers.proc_id nested in
  (* deep modifies v (outer's), g (global), t (mid's). *)
  Helpers.check_var_set nested "deep flat" [ "outer.v"; "g"; "mid.t" ] flat.(pid "deep");
  (* mid flat: only w?  mid's own body writes w. *)
  Helpers.check_var_set nested "mid flat" [ "outer.w" ] flat.(pid "mid");
  (* extension: mid inherits everything deep modifies that is not
     deep's own — v, g, and mid's own t (t is non-local to deep). *)
  Helpers.check_var_set nested "mid extended"
    [ "outer.v"; "outer.w"; "g"; "mid.t" ]
    ext.(pid "mid");
  (* outer inherits v, w, g but they are partly its own locals: the
     extension keeps v and w since they're outer's locals modified by
     nested procs (non-local to mid). *)
  Helpers.check_var_set nested "outer extended" [ "outer.v"; "outer.w"; "g" ]
    ext.(pid "outer");
  (* main: everything non-local to outer = just g. *)
  Helpers.check_var_set nested "main extended" [ "g" ] ext.(nested.Ir.Prog.main)

let prop_extension_monotone seed =
  let prog = Helpers.nested_of_seed seed in
  let info = Ir.Info.make prog in
  let flat = Frontend.Local.imod_flat info in
  let ext = Frontend.Local.imod info in
  Array.for_all2 (fun f e -> Bitvec.subset f e) flat ext

let prop_extension_only_adds_nonlocal seed =
  let prog = Helpers.nested_of_seed seed in
  let info = Ir.Info.make prog in
  let flat = Frontend.Local.imod_flat info in
  let ext = Frontend.Local.imod info in
  let ok = ref true in
  Array.iteri
    (fun pid e ->
      let added = Bitvec.diff e flat.(pid) in
      (* Everything added comes from a nested procedure and is not
         local to that procedure; in particular it is visible in pid
         (its owner is pid or one of pid's ancestors) or global. *)
      Bitvec.iter
        (fun vid ->
          if not (Ir.Prog.visible prog ~proc:pid ~var:vid) then ok := false)
        added)
    ext;
  !ok

let () =
  Helpers.run "local"
    [
      ( "per-statement",
        [
          Alcotest.test_case "LMOD by statement kind" `Quick test_lmod;
          Alcotest.test_case "LUSE by statement kind" `Quick test_luse;
        ] );
      ( "per-procedure",
        [
          Alcotest.test_case "flat IMOD" `Quick test_imod_flat;
          Alcotest.test_case "nesting extension" `Quick test_nesting_extension;
          Helpers.qtest ~count:60 "extension is monotone" Helpers.arb_nested_prog
            prop_extension_monotone;
          Helpers.qtest ~count:60 "extension adds only visible vars"
            Helpers.arb_nested_prog prop_extension_only_adds_nonlocal;
        ] );
    ]
