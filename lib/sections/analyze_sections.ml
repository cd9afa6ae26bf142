module Prog = Ir.Prog

type t = {
  info : Ir.Info.t;
  call : Callgraph.Call.t;
  binding : Callgraph.Binding.t;
  imod_flat : Bitvec.t array;
  immutable : Bitvec.t;
  rsmod : Rsmod.result;
  rsuse : Rsmod.result;
  imod_plus : Secmap.t array;
  iuse_plus : Secmap.t array;
  gmod : Secmap.t array;
  guse : Secmap.t array;
}

let applicable prog = Prog.max_level prog <= 1

(* Sectioned equation (5): local sections plus, per call site, the
   binding-function image of each modified formal's section. *)
let imod_plus_sections info ~imod_flat ~(rs : Rsmod.result) ~lrsd =
  let prog = Ir.Info.prog info in
  let result = Array.map Secmap.copy lrsd in
  let joins = ref 0 in
  Prog.iter_sites prog (fun s ->
      let callee = Prog.proc prog s.Prog.callee in
      Array.iteri
        (fun arg_pos arg ->
          match arg with
          | Prog.Arg_value _ -> ()
          | Prog.Arg_ref _ ->
            let callee_section = Rsmod.section_of rs callee.Prog.formals.(arg_pos) in
            if not (Section.equal callee_section Section.bottom) then begin
              let base, induced =
                Bindfn.project info ~site:s ~arg_pos
                  ~caller_unstable:imod_flat.(s.Prog.caller) ~callee_section
              in
              incr joins;
              ignore (Secmap.add result.(s.Prog.caller) base induced)
            end)
        s.Prog.args);
  Section.count_joins !joins;
  result

let run ?info ?call prog =
  if not (applicable prog) then
    invalid_arg "Analyze_sections.run: nested programs are out of scope for §6";
  Obs.Span.with_ "sections" @@ fun () ->
  let info =
    Ir.Info.without_pointers
      (match info with Some i -> i | None -> Ir.Info.make prog)
  in
  let call = match call with Some c -> c | None -> Callgraph.Call.build prog in
  let binding = Callgraph.Binding.build info in
  (* The whole-program facts every later step consults, derived once. *)
  let imod_flat = Frontend.Local.imod_flat info in
  let immutable = Bitvec.copy (Ir.Info.global info) in
  Array.iter (fun m -> ignore (Bitvec.diff_into ~src:m ~dst:immutable)) imod_flat;
  let lmod = Lrsd.lrsd_mod prog ~unstable:imod_flat in
  let luse = Lrsd.lrsd_use prog ~unstable:imod_flat in
  let rsmod =
    Obs.Span.with_ "sections.rsmod" (fun () ->
        Rsmod.solve info binding ~unstable:imod_flat ~lrsd:lmod)
  in
  let rsuse =
    Obs.Span.with_ "sections.rsuse" (fun () ->
        Rsmod.solve info binding ~unstable:imod_flat ~lrsd:luse)
  in
  let imod_plus =
    Obs.Span.with_ "sections.imod_plus" (fun () ->
        imod_plus_sections info ~imod_flat ~rs:rsmod ~lrsd:lmod)
  in
  let iuse_plus =
    Obs.Span.with_ "sections.iuse_plus" (fun () ->
        imod_plus_sections info ~imod_flat ~rs:rsuse ~lrsd:luse)
  in
  let gmod =
    Obs.Span.with_ "sections.gmod" (fun () ->
        Gmod_sections.solve info call ~immutable ~seed:imod_plus)
  in
  let guse =
    Obs.Span.with_ "sections.guse" (fun () ->
        Gmod_sections.solve info call ~immutable ~seed:iuse_plus)
  in
  { info; call; binding; imod_flat; immutable; rsmod; rsuse; imod_plus; iuse_plus;
    gmod; guse }

(* Sectioned equation (2) projection for one site, under a chosen
   caller instability set. *)
let project_site_unstable t ~which ~caller_unstable sid =
  let info = t.info in
  let prog = Ir.Info.prog info in
  let s = Prog.site prog sid in
  let callee = Prog.proc prog s.Prog.callee in
  let summary =
    match which with
    | `Mod -> t.gmod.(s.Prog.callee)
    | `Use -> t.guse.(s.Prog.callee)
  in
  let result = Secmap.create prog in
  (* Non-local survivors.  The site is known here, so callee-formal
     atoms can be substituted through the actual bindings (more precise
     than the frame-independent widening used inside the fixpoint). *)
  let mask = Ir.Info.non_local info s.Prog.callee in
  List.iter
    (fun (vid, sec) ->
      if Bitvec.get mask vid then
        ignore
          (Secmap.add result vid (Bindfn.subst_section info ~site:s ~caller_unstable sec)))
    (Secmap.touched summary);
  (* Formal sections onto actuals, through g_e. *)
  Array.iteri
    (fun arg_pos arg ->
      match arg with
      | Prog.Arg_value _ -> ()
      | Prog.Arg_ref _ ->
        let callee_section = Secmap.get summary callee.Prog.formals.(arg_pos) in
        if not (Section.equal callee_section Section.bottom) then begin
          let base, induced =
            Bindfn.project info ~site:s ~arg_pos ~caller_unstable ~callee_section
          in
          ignore (Secmap.add result base induced)
        end)
    s.Prog.args;
  result

let project_site t ~which sid =
  let s = Prog.site (Ir.Info.prog t.info) sid in
  project_site_unstable t ~which ~caller_unstable:t.imod_flat.(s.Prog.caller) sid

let mod_of_site t sid = project_site t ~which:`Mod sid

let use_of_site t sid =
  let result = project_site t ~which:`Use sid in
  (* Argument evaluation: the caller-local uses of the call statement,
     sectioned. *)
  let prog = Ir.Info.prog t.info in
  let s = Prog.site prog sid in
  let unstable = t.imod_flat.(s.Prog.caller) in
  let add vid sec = ignore (Secmap.add result vid sec) in
  Array.iter
    (fun arg ->
      match arg with
      | Prog.Arg_value e -> Lrsd.use_expr_into ~unstable ~add e
      | Prog.Arg_ref lv -> Lrsd.use_lvalue_indices_into ~unstable ~add lv)
    s.Prog.args;
  result

let pp_report ppf t =
  let prog = Ir.Info.prog t.info in
  Format.fprintf ppf "@[<v>== sectioned analysis: %s ==@," prog.Prog.name;
  Prog.iter_procs prog (fun pr ->
      let pid = pr.Prog.pid in
      Format.fprintf ppf "procedure %s:@,  GMOD = %a@,  GUSE = %a@," pr.Prog.pname
        (Secmap.pp prog) t.gmod.(pid) (Secmap.pp prog) t.guse.(pid));
  Prog.iter_sites prog (fun s ->
      Format.fprintf ppf "site %d (%s -> %s): MOD = %a, USE = %a@," s.Prog.sid
        (Prog.proc prog s.Prog.caller).Prog.pname
        (Prog.proc prog s.Prog.callee).Prog.pname
        (Secmap.pp prog) (mod_of_site t s.Prog.sid)
        (Secmap.pp prog) (use_of_site t s.Prog.sid));
  Format.fprintf ppf "@]"

(* Per-iteration summary of one loop: local sectioned effects of the
   body plus the projections of the call sites it contains, all with
   the loop variable treated as stable (it is fixed within an
   iteration). *)
let loop_summary t ~proc ~ivar ~body =
  let prog = Ir.Info.prog t.info in
  let unstable = Bitvec.copy t.imod_flat.(proc) in
  Bitvec.unset unstable ivar;
  let mod_map = Lrsd.stmts_mod prog ~unstable body in
  let use_map = Lrsd.stmts_use prog ~unstable body in
  List.iter
    (fun sid ->
      ignore
        (Secmap.join_into
           ~src:(project_site_unstable t ~which:`Mod ~caller_unstable:unstable sid)
           ~dst:mod_map);
      ignore
        (Secmap.join_into
           ~src:(project_site_unstable t ~which:`Use ~caller_unstable:unstable sid)
           ~dst:use_map))
    (Ir.Stmt.call_sites body);
  (mod_map, use_map)
