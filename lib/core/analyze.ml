module Prog = Ir.Prog

type t = {
  prog : Prog.t;
  info : Ir.Info.t;
  call : Callgraph.Call.t;
  binding : Callgraph.Binding.t;
  ptsto : Ptsto.t option;
  imod : Bitvec.t array;
  iuse : Bitvec.t array;
  rmod : Rmod.result;
  ruse : Rmod.result;
  imod_plus : Bitvec.t array;
  iuse_plus : Bitvec.t array;
  gmod : Bitvec.t array;
  guse : Bitvec.t array;
  alias : Alias.t;
  mustmod : Mustmod.result;
  summary : Summary.t;
  provenance : provenance option;
}

and provenance = {
  alias_reasons : Provenance.alias_table;
  forest : Provenance.t Lazy.t;
}

(* The thunk captures [t], whose fields are never mutated, so a forest
   forced after any number of edits describes the solutions it was
   attached to; dropping [t]'s own provenance first keeps a chain of
   edits from holding every earlier forest. *)
let with_provenance t alias =
  let t = { t with provenance = None } in
  let forest =
    lazy
      (Obs.Span.with_ "provenance" (fun () ->
           Provenance.compute t.info ~binding:t.binding ~imod:t.imod
             ~iuse:t.iuse ~rmod:t.rmod ~ruse:t.ruse ~imod_plus:t.imod_plus
             ~iuse_plus:t.iuse_plus ~gmod:t.gmod ~guse:t.guse
             ~mustmod:t.mustmod.Mustmod.mustmod
             ~intra:t.mustmod.Mustmod.intra ~alias))
  in
  { t with provenance = Some { alias_reasons = alias; forest } }

let provenance_forest t =
  Option.map (fun p -> Lazy.force p.forest) t.provenance

let run_with ?pool ?(provenance = false)
    ?(ptsto = Ptsto.Steensgaard) prog =
  Obs.Span.with_ "analyze" @@ fun () ->
  (* Points-to runs first: its dereference projection enters [info],
     where every later phase reads it.  Pointer-free programs skip it
     entirely — the empty projection leaves each phase on its original
     code path, so results (and counted bit-vector ops) are
     bit-identical to a pointer-less build. *)
  let pt =
    if Ptsto.has_pointers prog then
      Some (Obs.Span.with_ "ptsto" (fun () -> Ptsto.analyze ~tier:ptsto prog))
    else None
  in
  let info =
    Obs.Span.with_ "info" (fun () ->
        Ir.Info.make ?pointers:(Option.map Ptsto.pointers pt) prog)
  in
  let call = Callgraph.Call.build prog in
  let binding = Callgraph.Binding.build info in
  let imod = Obs.Span.with_ "local" (fun () -> Frontend.Local.imod ?pool info) in
  let iuse = Obs.Span.with_ "local.use" (fun () -> Frontend.Local.iuse ?pool info) in
  let rmod = Rmod.solve ?pool binding ~imod in
  let ruse = Rmod.solve ~label:"ruse" ?pool binding ~imod:iuse in
  let imod_plus = Imod_plus.compute info ~rmod ~imod in
  let iuse_plus = Imod_plus.compute ~label:"iuse_plus" info ~rmod:ruse ~imod:iuse in
  let gmod, guse =
    ( Gmod_nested.solve ?pool info call ~imod_plus,
      Gmod_nested.solve ~label:"guse" ?pool info call ~imod_plus:iuse_plus )
  in
  let alias_table =
    if provenance then Some (Provenance.create_alias_table ()) else None
  in
  let alias = Alias.compute ?provenance:alias_table info in
  let mustmod = Mustmod.solve ?pool info call ~alias ~gmod in
  let summary =
    Obs.Span.with_ "summary" (fun () -> Summary.make info ~gmod ~guse ~alias)
  in
  let t =
    {
      prog;
      info;
      call;
      binding;
      ptsto = pt;
      imod;
      iuse;
      rmod;
      ruse;
      imod_plus;
      iuse_plus;
      gmod;
      guse;
      alias;
      mustmod;
      summary;
      provenance = None;
    }
  in
  match alias_table with
  | None -> t
  | Some table -> with_provenance t table

let run ?(jobs = 1) ?pool ?provenance ?ptsto prog =
  match pool with
  | Some _ -> run_with ?pool ?provenance ?ptsto prog
  | None ->
    Par.Pool.with_pool ~jobs (fun pool -> run_with ?pool ?provenance ?ptsto prog)

let union_over t family family' =
  let acc = Ir.Info.fresh t.info in
  Prog.iter_procs t.prog (fun pr ->
      let pid = pr.Prog.pid in
      ignore (Bitvec.union_into ~src:family.(pid) ~dst:acc);
      ignore (Bitvec.union_into ~src:family'.(pid) ~dst:acc));
  acc

let modified_anywhere t = union_over t t.gmod t.imod
let used_anywhere t = union_over t t.guse t.iuse

let mod_of_site t sid = Summary.mod_site t.summary sid
let use_of_site t sid = Summary.use_site t.summary sid
let dmod_of_site t sid = Summary.dmod_site t.summary sid
let duse_of_site t sid = Summary.duse_site t.summary sid
let gmod_of t pid = t.gmod.(pid)
let guse_of t pid = t.guse.(pid)
let mustmod_of t pid = Mustmod.mustmod_of t.mustmod pid

let pp_report ppf t =
  let prog = t.prog in
  Format.fprintf ppf "@[<v>== analysis report: %s ==@," prog.Prog.name;
  Format.fprintf ppf "%a@," Callgraph.Call.pp_stats t.call;
  Format.fprintf ppf "%a@,@," Callgraph.Binding.pp_stats t.binding;
  Prog.iter_procs prog (fun pr ->
      let pid = pr.Prog.pid in
      Format.fprintf ppf "procedure %s:@," pr.Prog.pname;
      (match Rmod.rmod_of_proc t.rmod pid with
      | [] -> ()
      | vids ->
        Format.fprintf ppf "  RMOD = {%a}@,"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
             (fun ppf vid ->
               Format.pp_print_string ppf (Prog.var prog vid).Prog.vname))
          vids);
      Format.fprintf ppf "  IMOD+ = %a@," (Ir.Pp.pp_var_set prog) t.imod_plus.(pid);
      Format.fprintf ppf "  GMOD  = %a@," (Ir.Pp.pp_var_set prog) t.gmod.(pid);
      Format.fprintf ppf "  GUSE  = %a@," (Ir.Pp.pp_var_set prog) t.guse.(pid);
      Format.fprintf ppf "  MUSTMOD = %a@," (Ir.Pp.pp_var_set prog)
        (Mustmod.mustmod_of t.mustmod pid));
  Format.fprintf ppf "@,%a@," (Alias.pp prog) t.alias;
  Prog.iter_sites prog (fun s ->
      Format.fprintf ppf "@,site %d: %s calls %s@,  MOD = %a@,  USE = %a@,"
        s.Prog.sid
        (Prog.proc prog s.Prog.caller).Prog.pname
        (Prog.proc prog s.Prog.callee).Prog.pname
        (Ir.Pp.pp_var_set prog)
        (mod_of_site t s.Prog.sid)
        (Ir.Pp.pp_var_set prog)
        (use_of_site t s.Prog.sid));
  Format.fprintf ppf "@]"
