(* A toy optimizer showing why §2 says call-site MOD/USE sets "should
   lead to improved optimization".

   The optimizer performs register caching over main's statement list:
   a scalar loaded once stays in a register until something may write
   it.  Without interprocedural analysis every call kills every cached
   value (the compiler "must assume that the called procedure both uses
   and modifies every variable it can see").  With MOD(s) per call
   site, only the variables the callee may actually modify are killed.

   Run with:  dune exec examples/optimizer.exe *)

let source =
  {|program solver;
var x, y, tolerance, iterations, residual : int;

procedure log_progress(step : int);
begin
  write step;
  write residual;
end;

procedure refine(var value : int);
begin
  value := value - value / tolerance;
  residual := residual - 1;
end;

procedure damp(factor : int);
begin
  residual := residual - residual / factor;
end;

begin
  x := 1000;
  y := 2000;
  tolerance := 10;
  residual := 100;
  iterations := 0;
  while residual > 0 do
    call refine(x);
    call damp(4);
    iterations := iterations + 1;
    call log_progress(iterations);
    y := y + x / tolerance;
  end;
  call damp(4);
  write y;
end.
|}

module Int_set = Set.Make (Int)

(* Count register reloads in a straight-line walk of the statements:
   every scalar read that is not cached costs a load; writes update the
   cache; [kill] says what a call invalidates. *)
let count_loads info body ~kill =
  let loads = ref 0 in
  let cached = ref Int_set.empty in
  let read v =
    if not (Int_set.mem v !cached) then begin
      incr loads;
      cached := Int_set.add v !cached
    end
  in
  let write v = cached := Int_set.add v !cached in
  let rec stmt (s : Ir.Stmt.t) =
    List.iter read (Frontend.Local.luse_stmt info s);
    List.iter write (Frontend.Local.lmod_stmt info s);
    match s with
    | Ir.Stmt.Call sid -> cached := Int_set.diff !cached (kill sid)
    | Ir.Stmt.If (_, a, b) ->
      List.iter stmt a;
      List.iter stmt b
    | Ir.Stmt.While (_, b) | Ir.Stmt.For (_, _, _, b) ->
      (* One symbolic pass through the body, then the kills of the body
         apply to the loop-exit state as well. *)
      List.iter stmt b
    | Ir.Stmt.Assign _ | Ir.Stmt.Read _ | Ir.Stmt.Write _ -> ()
  in
  List.iter stmt body;
  !loads

let () =
  let prog = Frontend.Sema.compile_exn ~file:"solver.mp" source in
  let t = Core.Analyze.run prog in
  (* Interprocedural constant propagation on the same intermediates:
     callees invoked with the same constants could be specialised. *)
  let ipcp = Ipcp.analyze t.Core.Analyze.info ~imod_plus:t.Core.Analyze.imod_plus in
  let main = Ir.Prog.proc prog prog.Ir.Prog.main in
  let all_visible sid =
    let s = Ir.Prog.site prog sid in
    (* Worst-case assumption: the callee clobbers everything it can see. *)
    Bitvec.fold Int_set.add
      (Ir.Info.visible t.Core.Analyze.info s.Ir.Prog.caller)
      Int_set.empty
  in
  let mod_only sid =
    Bitvec.fold Int_set.add (Core.Analyze.mod_of_site t sid) Int_set.empty
  in
  let naive = count_loads t.Core.Analyze.info main.Ir.Prog.body ~kill:all_visible in
  let precise = count_loads t.Core.Analyze.info main.Ir.Prog.body ~kill:mod_only in
  Ir.Prog.iter_sites prog (fun s ->
      Format.printf "MOD(call %s at site %d) = %a@."
        (Ir.Prog.proc prog s.Ir.Prog.callee).Ir.Prog.pname s.Ir.Prog.sid
        (Ir.Pp.pp_var_set prog)
        (Core.Analyze.mod_of_site t s.Ir.Prog.sid));
  Format.printf
    "@.register loads in main:@.  worst-case call clobbering: %d@.  with \
     interprocedural MOD: %d@."
    naive precise;
  Format.printf
    "@.'tolerance' and 'y' survive both calls in the loop; 'x' and 'residual'@.\
     are killed only by the call that can actually write them.@.";
  Format.printf
    "@.constant formal parameters (interprocedural constant propagation):@.";
  Format.printf "%a@." (Ipcp.pp prog) ipcp
