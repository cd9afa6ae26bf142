(* Lexical nesting, §3.3 and §4: a Pascal-style program with procedures
   three levels deep.

   Demonstrates (1) the IMOD nesting extension — a nested procedure's
   writes to its parent's locals and to globals count as the parent's;
   (2) the binding multi-graph rule for a formal used as an actual
   inside a nested procedure; and (3) that the multi-level findgmod is
   genuinely needed: plain Figure 2 run on the same program computes a
   different (wrong) GMOD.

   Run with:  dune exec examples/nested_pascal.exe *)

let source =
  {|program report;
var total, lines : int;

procedure format_page(var width : int);
var header : int;

  procedure emit(var w : int);

    procedure count();
    begin
      lines := lines + 1;   // global
      header := header + 1; // local of format_page, two levels up
    end;

  begin
    call count();
    w := w - 1;             // modifies emit's formal
    if w > 0 then
      call emit(w);         // recursion through the formal
    end;
  end;

begin
  header := 0;
  call emit(width);         // format_page's formal passed inside
  total := total + header;
end;

begin
  lines := 0;
  total := 0;
  call format_page(lines);
end.
|}

(* Plain Figure 2 on the same call graph and IMOD+ seeds, ignoring the
   nesting levels. *)
let plain_figure2 (t : Core.Analyze.t) =
  Core.Gmod.solve t.Core.Analyze.info t.Core.Analyze.call
    ~imod_plus:t.Core.Analyze.imod_plus

let () =
  let prog = Frontend.Sema.compile_exn ~file:"report.mp" source in
  Format.printf "nesting depth dP = %d@.@." (Ir.Prog.max_level prog);
  Ir.Prog.iter_procs prog (fun pr ->
      Format.printf "level %d: %s@." pr.Ir.Prog.level pr.Ir.Prog.pname);

  let t = Core.Analyze.run prog in
  Format.printf "@.-- IMOD with the nesting extension --@.";
  Ir.Prog.iter_procs prog (fun pr ->
      Format.printf "IMOD(%s) = %a@." pr.Ir.Prog.pname (Ir.Pp.pp_var_set prog)
        t.Core.Analyze.imod.(pr.Ir.Prog.pid));

  Format.printf "@.-- RMOD over the binding multi-graph --@.";
  Format.printf "%a@." Core.Rmod.pp t.Core.Analyze.rmod;

  Format.printf "@.-- GMOD: multi-level findgmod vs plain Figure 2 --@.";
  let flat = plain_figure2 t in
  Ir.Prog.iter_procs prog (fun pr ->
      let pid = pr.Ir.Prog.pid in
      let multi = t.Core.Analyze.gmod.(pid) and plain = flat.(pid) in
      Format.printf "GMOD(%s) = %a%s@." pr.Ir.Prog.pname (Ir.Pp.pp_var_set prog) multi
        (if Bitvec.equal multi plain then ""
         else
           Format.asprintf "   [plain Figure 2 would wrongly report %a]"
             (Ir.Pp.pp_var_set prog) plain));

  let sid = (List.hd (Ir.Prog.sites_of prog prog.Ir.Prog.main)).Ir.Prog.sid in
  Format.printf "@.MOD(main's call format_page(lines)) = %a@."
    (Ir.Pp.pp_var_set prog)
    (Core.Analyze.mod_of_site t sid);

  (* Part 2: a minimal program on which plain Figure 2 is actually
     wrong.  outer, helper and walker form one call-graph SCC; helper
     writes outer's local v.  When the DFS reaches walker, its edge to
     helper is a cross edge inside the open component, so Figure 2 only
     updates lowlink — and the component fix-up distributes
     GMOD[outer] ∖ LOCAL[outer], which strips v.  The multi-level
     algorithm closes the deeper component {helper, walker} separately
     and keeps v. *)
  let counter =
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
end.
|}
  in
  let prog2 = Frontend.Sema.compile_exn ~file:"demo.mp" counter in
  let multi = Core.Analyze.run prog2 in
  let plain = plain_figure2 multi in
  Format.printf
    "@.-- why the multi-level algorithm exists: a 4-procedure counterexample --@.";
  Ir.Prog.iter_procs prog2 (fun pr ->
      let pid = pr.Ir.Prog.pid in
      let m = multi.Core.Analyze.gmod.(pid) and p = plain.(pid) in
      Format.printf "GMOD(%s): multi-level = %a%s@." pr.Ir.Prog.pname
        (Ir.Pp.pp_var_set prog2) m
        (if Bitvec.equal m p then ""
         else Format.asprintf ", plain Figure 2 = %a  <-- misses outer.v"
             (Ir.Pp.pp_var_set prog2) p))
