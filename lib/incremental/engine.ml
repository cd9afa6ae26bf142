module Prog = Ir.Prog
module Info = Ir.Info
module Call = Callgraph.Call
module Binding = Callgraph.Binding
module Analyze = Core.Analyze
module Rmod = Core.Rmod

let edits_c = Obs.Metric.counter "incremental.edits"
let procs_resolved_c = Obs.Metric.counter "incremental.procs_resolved"
let edit_hist = Obs.Metric.histogram "incremental.edit_s"

(* Per-program site indexes: which sites a procedure contains, and
   which sites bind an actual to a given by-reference formal.  Both are
   what turns "this RMOD bit flipped" into "these callers' IMOD+ may
   move" without a scan of the whole site table. *)
type site_index = {
  by_caller : Prog.site list array;
  by_formal : int list array;
}

type caches = {
  imod_flat : Bitvec.t array;  (** Pre-nesting-fold [⋃ LMOD]. *)
  iuse_flat : Bitvec.t array;
  imod_aug : Bitvec.t array;
      (** [IMOD ∪ RMOD-site-projections], before the second nesting
          fold — the [sets] argument [IMOD+] is the fold of. *)
  iuse_aug : Bitvec.t array;
  sites : site_index;
}

type t = {
  pool : Par.Pool.t option;
  mutable analysis : Analyze.t;
  mutable caches : caches;
  mutable edits : int;
  mutable lint_cache : (int * string list * Lint.Diagnostic.t list) option;
      (** Findings computed at (edit count, rule names) — any [apply]
          bumps the edit count and so invalidates the entry. *)
  mutable dataflow : Dataflow.Driver.t option;
      (** Statement-level solution cache, created the first time {!lint}
          runs a dataflow rule.  Body edits invalidate it per procedure
          ({!Dataflow.Driver.refresh}); shape or structural changes
          renumber sites and drop it wholesale. *)
}

type outcome = { procs_resolved : int }

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

let rebind (r : Rmod.result) binding = { r with Rmod.binding }

let build_caches ?pool (a : Analyze.t) =
  let info = a.Analyze.info in
  {
    imod_flat = Frontend.Local.imod_flat ?pool info;
    iuse_flat = Frontend.Local.iuse_flat ?pool info;
    imod_aug = Core.Imod_plus.augment info ~rmod:a.Analyze.rmod ~imod:a.Analyze.imod;
    iuse_aug = Core.Imod_plus.augment info ~rmod:a.Analyze.ruse ~imod:a.Analyze.iuse;
    sites = site_index a.Analyze.prog;
  }

(* Adopt an existing batch result instead of re-running it.  The
   analysis server creates one engine per client session over a shared
   registry entry, so re-entry must cost only the caches: the adopted
   record is treated as read-only (the solvers' [resolve]s copy before
   they write; every edit replaces [t.analysis] wholesale), which keeps a
   still-unedited session's queries reading the same vectors as the
   registry base. *)
let of_analysis ?pool (analysis : Analyze.t) =
  {
    pool;
    analysis;
    caches = build_caches ?pool analysis;
    edits = 0;
    lint_cache = None;
    dataflow = None;
  }

let create ?pool prog = of_analysis ?pool (Analyze.run ?pool prog)

let analysis t = t.analysis
let prog t = t.analysis.Analyze.prog
let edits_applied t = t.edits

let lint ?(rules = Lint.Rule.all) t =
  let names = List.map (fun r -> r.Lint.Rule.name) rules in
  match t.lint_cache with
  | Some (edits, cached_names, ds) when edits = t.edits && cached_names = names
    ->
    ds
  | _ ->
    (* Dummy locations on purpose: edited programs have no source
       positions (Ir.Patch renumbers ids), and using them for the
       initial program too keeps the incremental findings comparable —
       and bit-identical — to a batch [Lint.Engine.run] on the same
       edited program. *)
    let drv =
      match t.dataflow with
      | Some d when Dataflow.Driver.analysis d == t.analysis -> d
      | Some _ | None ->
        let d = Dataflow.Driver.create t.analysis in
        t.dataflow <- Some d;
        d
    in
    let ds = Lint.Engine.run ?pool:t.pool ~dataflow:drv ~rules t.analysis in
    t.lint_cache <- Some (t.edits, names, ds);
    ds

(* What an edit leaves of the previous analysis.  A body or call-shape
   edit that moves neither the points-to projection nor the [&x] set
   keeps every id and every phase's input outside the edited
   procedure, so each stage diffs against the previous vectors and
   re-solves a cone.  Any other edit leaves no previous vector in the
   right coordinates, and the same stages run with every procedure
   dirty, which is the batch run. *)
type dirty =
  | Body of int
  | Shape of { caller : int; local_sets_touched : bool }
  | All

(* One side (MOD or USE) of the seed pipeline: flat → nesting fold →
   β re-solve.  [prev] holds the side's previous flat, folded and β
   values.  Returns everything the IMOD+ stage needs, changed-sets
   included. *)
let solve_side ~pool ~info ~binding ~graph_changed ~flat ~flat_seeds ~prev
    ~rmod_label =
  match prev with
  | None ->
    let folded, every = Info.fold_up_nesting info flat in
    (folded, every, Rmod.solve ~label:rmod_label ?pool binding ~imod:folded, [])
  | Some (old_flat, old_folded, (old : Rmod.result)) ->
    let changed_flat =
      List.filter (fun q -> not (Bitvec.equal flat.(q) old_flat.(q))) flat_seeds
    in
    let folded, folded_changed =
      Info.fold_up_nesting ~prev:(old_folded, changed_flat) info flat
    in
    let r, changed_nodes =
      if graph_changed then begin
        let r = Rmod.solve ~label:rmod_label ?pool binding ~imod:folded in
        let changed = ref [] in
        Array.iteri
          (fun node b -> if b <> old.Rmod.rmod.(node) then changed := node :: !changed)
          r.Rmod.rmod;
        (r, !changed)
      end
      else if folded_changed = [] then (rebind old binding, [])
      else
        Rmod.resolve ~label:(rmod_label ^ ".region") ?pool (rebind old binding)
          ~imod:folded ~changed_procs:folded_changed
    in
    (folded, folded_changed, r, changed_nodes)

(* IMOD+ of one side: the site projection of [rmod] added to the
   folded sets, then the second nesting fold.  [prev] holds the side's
   previous augmented and IMOD+ values. *)
let aug_and_plus ~info ~prog ~sites ~folded ~folded_changed ~(rmod : Rmod.result)
    ~changed_nodes ~prev ~extra_seeds =
  match prev with
  | None ->
    let aug = Core.Imod_plus.augment info ~rmod ~imod:folded in
    let plus, every = Info.fold_up_nesting info aug in
    (aug, plus, every)
  | Some (old_aug, old_plus) ->
    let binding = rmod.Rmod.binding in
    let aug_seeds =
      folded_changed
      @ List.concat_map
          (fun node ->
            let vid = Binding.var binding node in
            List.map (fun sid -> (Prog.site prog sid).Prog.caller)
              sites.by_formal.(vid))
          changed_nodes
      @ extra_seeds
      |> List.sort_uniq compare
    in
    let aug, aug_changed =
      if aug_seeds = [] then (old_aug, [])
      else begin
        let aug = Array.copy old_aug in
        let changed = ref [] in
        List.iter
          (fun q ->
            let v =
              Core.Imod_plus.augment_proc info ~rmod ~imod:folded
                ~sites:sites.by_caller.(q) q
            in
            if not (Bitvec.equal v old_aug.(q)) then begin
              aug.(q) <- v;
              changed := q :: !changed
            end)
          aug_seeds;
        (aug, !changed)
      end
    in
    let plus, plus_changed =
      Info.fold_up_nesting ~prev:(old_plus, aug_changed) info aug
    in
    (aug, plus, plus_changed)

let resolve t prog info ptsto dirty =
  let pool = t.pool in
  let old = t.analysis in
  let c = t.caches in
  let prev = match dirty with All -> None | Body _ | Shape _ -> Some (old, c) in
  let graph_changed = match dirty with Body _ -> false | Shape _ | All -> true in
  let call, binding, sites =
    match dirty with
    | Body _ ->
      ( Call.with_prog old.Analyze.call prog,
        Binding.with_prog old.Analyze.binding prog,
        c.sites )
    | Shape _ | All -> (Call.build prog, Binding.build info, site_index prog)
  in
  let flat_seeds, shape_seeds =
    match dirty with
    | Body proc -> ([ proc ], [])
    | Shape { caller; local_sets_touched } ->
      ((if local_sets_touched then [ caller ] else []), [ caller ])
    | All -> ([], [])
  in
  (* Local re-analysis of the touched procedures only. *)
  let local whole per_stmt cached =
    match prev with
    | None -> whole ?pool info
    | Some _ when flat_seeds = [] -> cached
    | Some _ ->
      let v = Array.copy cached in
      List.iter
        (fun q -> v.(q) <- Frontend.Local.flat_of_proc info per_stmt q)
        flat_seeds;
      v
  in
  let imod_flat =
    local Frontend.Local.imod_flat Frontend.Local.lmod_stmt c.imod_flat
  in
  let iuse_flat =
    local Frontend.Local.iuse_flat Frontend.Local.luse_stmt c.iuse_flat
  in
  let imod, imod_changed, rmod, rmod_changed =
    solve_side ~pool ~info ~binding ~graph_changed ~flat:imod_flat ~flat_seeds
      ~prev:
        (Option.map
           (fun (o, c) -> (c.imod_flat, o.Analyze.imod, o.Analyze.rmod))
           prev)
      ~rmod_label:"rmod"
  in
  let iuse, iuse_changed, ruse, ruse_changed =
    solve_side ~pool ~info ~binding ~graph_changed ~flat:iuse_flat ~flat_seeds
      ~prev:
        (Option.map
           (fun (o, c) -> (c.iuse_flat, o.Analyze.iuse, o.Analyze.ruse))
           prev)
      ~rmod_label:"ruse"
  in
  let imod_aug, imod_plus, imod_plus_changed =
    aug_and_plus ~info ~prog ~sites ~folded:imod ~folded_changed:imod_changed
      ~rmod ~changed_nodes:rmod_changed
      ~prev:(Option.map (fun (o, c) -> (c.imod_aug, o.Analyze.imod_plus)) prev)
      ~extra_seeds:shape_seeds
  in
  let iuse_aug, iuse_plus, iuse_plus_changed =
    aug_and_plus ~info ~prog ~sites ~folded:iuse ~folded_changed:iuse_changed
      ~rmod:ruse ~changed_nodes:ruse_changed
      ~prev:(Option.map (fun (o, c) -> (c.iuse_aug, o.Analyze.iuse_plus)) prev)
      ~extra_seeds:shape_seeds
  in
  (* GMOD/GUSE: re-solve the condensation-ancestor cone of everything
     whose seed (or out-edge set) changed, whatever its size — the
     cone's findgmod does a subset of the batch walk's work.  With
     every procedure dirty the cone is the whole graph: the batch
     solve. *)
  let side ~label seeds plus cached =
    match cached with
    | None ->
      ( Core.Gmod_nested.solve ~label ?pool info call ~imod_plus:plus,
        Prog.n_procs prog,
        [] )
    | Some cached ->
      Core.Gmod_nested.solve_region ?pool info call ~seed:plus
        ~seeds:(List.sort_uniq compare (seeds @ shape_seeds))
        ~cached
  in
  let gmod, n_mod, gmod_changed =
    side ~label:"gmod" imod_plus_changed imod_plus
      (Option.map (fun (o, _) -> o.Analyze.gmod) prev)
  in
  let guse, n_use, guse_changed =
    side ~label:"guse" iuse_plus_changed iuse_plus
      (Option.map (fun (o, _) -> o.Analyze.guse) prev)
  in
  let resolved = n_mod + n_use in
  (* A body edit leaves the site table — and therefore the alias pairs
     and their recorded reasons — untouched; any other edit recomputes
     both, recording into a fresh table.  The table is present iff the
     old analysis carries provenance. *)
  let alias, alias_table =
    if graph_changed then begin
      let table =
        Option.map
          (fun _ -> Core.Provenance.create_alias_table ())
          old.Analyze.provenance
      in
      (Core.Alias.compute ?provenance:table info, table)
    end
    else
      ( old.Analyze.alias,
        Option.map (fun p -> p.Analyze.alias_reasons) old.Analyze.provenance )
  in
  (* MUSTMOD rides the call graph's condensation: a body edit reseeds
     the edited procedure plus every procedure whose GMOD (the ∩-cap)
     actually moved, and change propagation walks the pruned
     condensation-ancestor cone; any other edit rebuilt the call graph
     (and its condensation), so the solve reruns. *)
  let mustmod =
    if graph_changed then Core.Mustmod.solve ?pool info call ~alias ~gmod
    else
      Core.Mustmod.resolve ?pool old.Analyze.mustmod info ~alias ~gmod
        ~changed_procs:(List.sort_uniq compare (flat_seeds @ gmod_changed))
  in
  (* The shared callee projections depend on GMOD/GUSE and LOCAL only;
     a cone edit changes no LOCAL. *)
  let summary =
    Obs.Span.with_ "summary" (fun () ->
        Core.Summary.make
          ?prev:
            (Option.map
               (fun (o, _) -> (o.Analyze.summary, gmod_changed, guse_changed))
               prev)
          info ~gmod ~guse ~alias)
  in
  let analysis =
    {
      Analyze.prog;
      info;
      call;
      binding;
      ptsto;
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
  (* The forest is a post-pass over the final solutions, attached as a
     lazy over this record: the edit pays nothing for it, and the first
     witness asked for builds it against exactly these solutions. *)
  t.analysis <-
    Option.fold ~none:analysis
      ~some:(Analyze.with_provenance analysis)
      alias_table;
  t.caches <- { imod_flat; iuse_flat; imod_aug; iuse_aug; sites };
  (* Stale after this edit anyway, and its findings' witness thunks
     hold the analysis just replaced. *)
  t.lint_cache <- None;
  (match (t.dataflow, dirty) with
  | None, _ -> ()
  | Some d, Body proc -> ignore (Dataflow.Driver.refresh d t.analysis ~edited:[ proc ])
  | Some d, (Shape _ | All) ->
    (* Every other edit renumbers the site table the cached CFGs
       index into, or moves what their transfer functions read. *)
    Dataflow.Driver.reset d t.analysis);
  Obs.Metric.add procs_resolved_c resolved;
  { procs_resolved = resolved }

let apply t edit =
  let t0 = Obs.Clock.now () in
  let outcome =
    Obs.Span.with_ "incremental.resolve" @@ fun () ->
    let old = t.analysis in
    let kind = Edit.kind old.Analyze.prog edit in
    let prog = Edit.apply old.Analyze.prog edit in
    Obs.Metric.incr edits_c;
    t.edits <- t.edits + 1;
    (* Points-to is a whole-program, flow-insensitive solution: every
       edit re-solves it, at the tier of the solution it replaces. *)
    let ptsto =
      if Ptsto.has_pointers prog then
        let tier =
          Option.fold ~none:Ptsto.Steensgaard ~some:Ptsto.tier old.Analyze.ptsto
        in
        Some (Obs.Span.with_ "ptsto" (fun () -> Ptsto.analyze ~tier prog))
      else None
    in
    let pointers = Option.map Ptsto.pointers ptsto in
    let all () =
      resolve t prog
        (Obs.Span.with_ "info" (fun () -> Info.make ?pointers prog))
        ptsto All
    in
    (* Every cached phase read the projection and the [&x] set through
       [info]; the cone path is exact only while neither moves. *)
    let cone dirty =
      let same_projection =
        match (old.Analyze.ptsto, ptsto) with
        | None, None -> true
        | Some a, Some b -> Ptsto.same_projection a b
        | Some _, None | None, Some _ -> false
      in
      match
        if same_projection then Info.with_prog ?pointers old.Analyze.info prog
        else None
      with
      | Some info -> resolve t prog info ptsto dirty
      | None -> all ()
    in
    match kind with
    | Edit.Body { proc } -> cone (Body proc)
    | Edit.Call_shape { caller; local_sets_touched } ->
      cone (Shape { caller; local_sets_touched })
    | Edit.Structural -> all ()
  in
  Obs.Metric.observe edit_hist (Obs.Clock.now () -. t0);
  outcome
