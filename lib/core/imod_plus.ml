module Prog = Ir.Prog
module Expr = Ir.Expr

(* b_e(RMOD(callee)) at one site, added to the caller's vector [v]. *)
let project ~deref prog ~rmod v (s : Prog.site) =
  let callee = Prog.proc prog s.Prog.callee in
  Array.iteri
    (fun i arg ->
      match arg with
      | Prog.Arg_value _ -> ()
      | Prog.Arg_ref lv ->
        if Rmod.modified rmod callee.Prog.formals.(i) then (
          match lv with
          | Expr.Lvar b | Expr.Lindex (b, _) -> Bitvec.set v b
          | Expr.Lderef (base, d) -> List.iter (Bitvec.set v) (deref base d)))
    s.Prog.args

let augment ?(deref = Frontend.Local.no_deref) info ~rmod ~imod =
  let prog = Ir.Info.prog info in
  let result = Array.map Bitvec.copy imod in
  Prog.iter_sites prog (fun s -> project ~deref prog ~rmod result.(s.Prog.caller) s);
  result

let augment_proc ?(deref = Frontend.Local.no_deref) info ~rmod ~imod ~sites pid =
  let v = Bitvec.copy imod.(pid) in
  List.iter (project ~deref (Ir.Info.prog info) ~rmod v) sites;
  v

let compute ?(label = "imod_plus") ?deref info ~rmod ~imod =
  Obs.Span.with_ label @@ fun () ->
  fst (Ir.Info.fold_up_nesting info (augment ?deref info ~rmod ~imod))
