module Prog = Ir.Prog

(* b_e(RMOD(callee)) at one site, added to the caller's vector [v]. *)
let project info ~rmod v (s : Prog.site) =
  let callee = Prog.proc (Ir.Info.prog info) s.Prog.callee in
  Array.iteri
    (fun i arg ->
      match arg with
      | Prog.Arg_value _ -> ()
      | Prog.Arg_ref lv ->
        if Rmod.modified rmod callee.Prog.formals.(i) then
          List.iter (Bitvec.set v) (Ir.Info.lvalue_cells info lv))
    s.Prog.args

let augment info ~rmod ~imod =
  let result = Array.map Bitvec.copy imod in
  Prog.iter_sites (Ir.Info.prog info) (fun s ->
      project info ~rmod result.(s.Prog.caller) s);
  result

let augment_proc info ~rmod ~imod ~sites pid =
  let v = Bitvec.copy imod.(pid) in
  List.iter (project info ~rmod v) sites;
  v

let compute info ~rmod ~imod =
  Obs.Span.with_ "imod_plus" @@ fun () ->
  fst (Ir.Info.fold_up_nesting info (augment info ~rmod ~imod))
