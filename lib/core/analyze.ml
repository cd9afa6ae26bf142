module Prog = Ir.Prog

type t = {
  prog : Prog.t;
  info : Ir.Info.t;
  call : Callgraph.Call.t;
  binding : Callgraph.Binding.t;
  ptsto : Ptsto.t option;
  imod_flat : Bitvec.t array;
  iuse_flat : Bitvec.t array;
  imod : Bitvec.t array;
  iuse : Bitvec.t array;
  rmod : Rmod.result;
  ruse : Rmod.result;
  imod_aug : Bitvec.t array;
  iuse_aug : Bitvec.t array;
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

(* Which call sites a procedure contains, and which sites bind an
   actual to a given by-reference formal: what turns "this RMOD bit
   flipped" into "these callers' IMOD+ may move" without a scan of the
   whole site table. *)
type site_index = {
  by_caller : Prog.site list array;
  by_formal : int list array;
}

let site_index prog =
  let by_caller = Array.make (Prog.n_procs prog) [] in
  let by_formal = Array.make (Prog.n_vars prog) [] in
  Prog.iter_sites prog (fun s ->
      by_caller.(s.Prog.caller) <- s :: by_caller.(s.Prog.caller);
      let callee = Prog.proc prog s.Prog.callee in
      Array.iteri
        (fun i arg ->
          match arg with
          | Prog.Arg_ref _ ->
            let f = callee.Prog.formals.(i) in
            by_formal.(f) <- s.Prog.sid :: by_formal.(f)
          | Prog.Arg_value _ -> ())
        s.Prog.args);
  { by_caller; by_formal }

type change =
  | Body of int
  | Call_shape of { caller : int; local_sets_touched : bool }

type previous = { analysis : t; change : change; sites : site_index }

(* Each stage below takes its side's previous values and the
   procedures whose input may have moved, or [None] for the whole
   program.  The whole-program branch is the batch phase, under the
   span a profile keys it on; the other diffs against the previous
   vectors and re-solves a cone. *)

(* Local sets of one side and their nesting fold, with the procedures
   whose folded set moved. *)
let local_stage ?pool info ~span ~whole ~per_stmt prev =
  match prev with
  | None ->
    Obs.Span.with_ span @@ fun () ->
    let flat = whole ?pool info in
    (flat, fst (Ir.Info.fold_up_nesting info flat), [])
  | Some (old_flat, old_folded, seeds) ->
    let flat = Array.copy old_flat in
    List.iter
      (fun q -> flat.(q) <- Frontend.Local.flat_of_proc info per_stmt q)
      seeds;
    let moved =
      List.filter (fun q -> not (Bitvec.equal flat.(q) old_flat.(q))) seeds
    in
    let folded, folded_moved =
      Ir.Info.fold_up_nesting ~prev:(old_folded, moved) info flat
    in
    (flat, folded, folded_moved)

(* RMOD of one side on β, with the β nodes whose bit moved.  A kept
   graph pushes the moved seeds through the previous condensation; a
   rebuilt one re-solves and diffs. *)
let rmod_stage ?pool binding ~label ~folded ~folded_moved prev =
  let rebind (r : Rmod.result) = { r with Rmod.binding } in
  match prev with
  | None -> (Rmod.solve ~label ?pool binding ~imod:folded, [])
  | Some ((old : Rmod.result), `Rebuilt) ->
    let r = Rmod.solve ~label ?pool binding ~imod:folded in
    let moved = ref [] in
    Array.iteri
      (fun node b -> if b <> old.Rmod.rmod.(node) then moved := node :: !moved)
      r.Rmod.rmod;
    (r, !moved)
  | Some (old, `Kept) ->
    if folded_moved = [] then (rebind old, [])
    else
      Rmod.resolve ~label:(label ^ ".region") ?pool (rebind old) ~imod:folded
        ~changed_procs:folded_moved

(* IMOD+ of one side: the site projection of [rmod] added to the folded
   sets, then the second nesting fold.  [seeds] are the callers whose
   projection may have moved besides those of [moved_nodes]' formals. *)
let plus_stage info ~span ~folded ~(rmod : Rmod.result) ~moved_nodes prev =
  match prev with
  | None ->
    Obs.Span.with_ span @@ fun () ->
    let aug = Imod_plus.augment info ~rmod ~imod:folded in
    (aug, fst (Ir.Info.fold_up_nesting info aug), [])
  | Some (old_aug, old_plus, sites, seeds) ->
    let prog = Ir.Info.prog info in
    let seeds =
      seeds
      @ List.concat_map
          (fun node ->
            List.map
              (fun sid -> (Prog.site prog sid).Prog.caller)
              sites.by_formal.(Callgraph.Binding.var rmod.Rmod.binding node))
          moved_nodes
      |> List.sort_uniq compare
    in
    let aug = Array.copy old_aug in
    let moved =
      List.filter
        (fun q ->
          let v =
            Imod_plus.augment_proc info ~rmod ~imod:folded
              ~sites:sites.by_caller.(q) q
          in
          let moved = not (Bitvec.equal v old_aug.(q)) in
          if moved then aug.(q) <- v;
          moved)
        seeds
    in
    let plus, plus_moved =
      Ir.Info.fold_up_nesting ~prev:(old_plus, moved) info aug
    in
    (aug, plus, plus_moved)

(* GMOD of one side, with the number of procedures re-solved and those
   whose vector moved.  The cone's findgmod does a subset of the whole
   walk's work, whatever the cone's size. *)
let gmod_stage ?pool info call ~label ~plus prev =
  match prev with
  | None ->
    ( Gmod_nested.solve ~label ?pool info call ~imod_plus:plus,
      Prog.n_procs (Ir.Info.prog info),
      [] )
  | Some (cached, seeds) ->
    Gmod_nested.solve_region ?pool info call ~seed:plus
      ~seeds:(List.sort_uniq compare seeds) ~cached

let solve ?pool ?(provenance = false) ?previous info ptsto =
  let prog = Ir.Info.prog info in
  let old = Option.map (fun p -> p.analysis) previous in
  let kept =
    match previous with Some { change = Body _; _ } -> true | _ -> false
  in
  let flat_seeds, shape_seeds =
    match previous with
    | None -> ([], [])
    | Some { change = Body proc; _ } -> ([ proc ], [])
    | Some { change = Call_shape { caller; local_sets_touched }; _ } ->
      ((if local_sets_touched then [ caller ] else []), [ caller ])
  in
  let call, binding =
    match old with
    | Some o when kept ->
      ( Callgraph.Call.with_prog o.call prog,
        Callgraph.Binding.with_prog o.binding prog )
    | Some _ | None ->
      let call = Callgraph.Call.build prog in
      (call, Callgraph.Binding.build info)
  in
  let on_old f = Option.map f old in
  let imod_flat, imod, imod_moved =
    local_stage ?pool info ~span:"local" ~whole:Frontend.Local.imod_flat
      ~per_stmt:Frontend.Local.lmod_stmt
      (on_old (fun o -> (o.imod_flat, o.imod, flat_seeds)))
  in
  let iuse_flat, iuse, iuse_moved =
    local_stage ?pool info ~span:"local.use" ~whole:Frontend.Local.iuse_flat
      ~per_stmt:Frontend.Local.luse_stmt
      (on_old (fun o -> (o.iuse_flat, o.iuse, flat_seeds)))
  in
  let graph = if kept then `Kept else `Rebuilt in
  let rmod, rmod_moved =
    rmod_stage ?pool binding ~label:"rmod" ~folded:imod ~folded_moved:imod_moved
      (on_old (fun o -> (o.rmod, graph)))
  in
  let ruse, ruse_moved =
    rmod_stage ?pool binding ~label:"ruse" ~folded:iuse ~folded_moved:iuse_moved
      (on_old (fun o -> (o.ruse, graph)))
  in
  let imod_aug, imod_plus, imod_plus_moved =
    plus_stage info ~span:"imod_plus" ~folded:imod ~rmod ~moved_nodes:rmod_moved
      (Option.map
         (fun p ->
           ( p.analysis.imod_aug,
             p.analysis.imod_plus,
             p.sites,
             imod_moved @ shape_seeds ))
         previous)
  in
  let iuse_aug, iuse_plus, iuse_plus_moved =
    plus_stage info ~span:"iuse_plus" ~folded:iuse ~rmod:ruse ~moved_nodes:ruse_moved
      (Option.map
         (fun p ->
           ( p.analysis.iuse_aug,
             p.analysis.iuse_plus,
             p.sites,
             iuse_moved @ shape_seeds ))
         previous)
  in
  let gmod_side () =
    gmod_stage ?pool info call ~label:"gmod" ~plus:imod_plus
      (on_old (fun o -> (o.gmod, imod_plus_moved @ shape_seeds)))
  in
  let guse_side () =
    gmod_stage ?pool info call ~label:"guse" ~plus:iuse_plus
      (on_old (fun o -> (o.guse, iuse_plus_moved @ shape_seeds)))
  in
  (* The order the phase table and the region digests have always
     shown: GUSE first over the whole program, GMOD first in a cone. *)
  let (gmod, n_mod, gmod_moved), (guse, n_use, guse_moved) =
    match previous with
    | None ->
      let guse = guse_side () in
      (gmod_side (), guse)
    | Some _ ->
      let gmod = gmod_side () in
      (gmod, guse_side ())
  in
  (* A body edit leaves the site table, and so the alias pairs and
     their recorded reasons, as they were. *)
  let alias, alias_table =
    match old with
    | Some o when kept ->
      (o.alias, Option.map (fun p -> p.alias_reasons) o.provenance)
    | Some _ | None ->
      let table =
        if provenance then Some (Provenance.create_alias_table ()) else None
      in
      (Alias.compute ?provenance:table info, table)
  in
  (* A kept call graph keeps MUSTMOD's condensation: the edited
     procedure and every procedure whose GMOD (the ∩-cap) moved are
     reseeded, and only their pruned ancestor cone re-solves. *)
  let mustmod =
    match old with
    | Some o when kept ->
      Mustmod.resolve ?pool o.mustmod info ~alias ~gmod
        ~changed_procs:(List.sort_uniq compare (flat_seeds @ gmod_moved))
    | Some _ | None -> Mustmod.solve ?pool info call ~alias ~gmod
  in
  (* The shared callee projections depend on GMOD/GUSE and LOCAL only;
     an edit with a previous analysis changes no LOCAL. *)
  let summary =
    Obs.Span.with_ "summary" (fun () ->
        Summary.make
          ?prev:(on_old (fun o -> (o.summary, gmod_moved, guse_moved)))
          info ~gmod ~guse ~alias)
  in
  let t =
    {
      prog;
      info;
      call;
      binding;
      ptsto;
      imod_flat;
      iuse_flat;
      imod;
      iuse;
      rmod;
      ruse;
      imod_aug;
      iuse_aug;
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
  ( Option.fold ~none:t ~some:(with_provenance t) alias_table,
    n_mod + n_use )

let run_with ?pool ?provenance ?(ptsto = Ptsto.Steensgaard) prog =
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
  fst (solve ?pool ?provenance info pt)

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
