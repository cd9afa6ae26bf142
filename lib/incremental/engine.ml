module Prog = Ir.Prog
module Info = Ir.Info
module Call = Callgraph.Call
module Binding = Callgraph.Binding
module Analyze = Core.Analyze
module Rmod = Core.Rmod
module Gmod = Core.Gmod

let edits_c = Obs.Metric.counter "incremental.edits"
let procs_resolved_c = Obs.Metric.counter "incremental.procs_resolved"
let fallbacks_c = Obs.Metric.counter "incremental.full_fallbacks"
let edit_hist = Obs.Metric.histogram "incremental.edit_s"

(* Per-program site indexes: which sites a procedure contains, and
   which sites bind an actual to a given by-reference formal.  Both are
   what turns "this RMOD bit flipped" into "these callers' IMOD+ may
   move" without a scan of the whole site table. *)
type site_index = {
  by_caller : int list array;
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
  threshold : float;
  pool : Par.Pool.t option;
  provenance : bool;
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

type outcome = {
  fallback : string option;
  procs_resolved : int;
}

exception Fallback of string

let site_index prog =
  let by_caller = Array.make (Prog.n_procs prog) [] in
  let by_formal = Array.make (Prog.n_vars prog) [] in
  Prog.iter_sites prog (fun s ->
      by_caller.(s.Prog.caller) <- s.Prog.sid :: by_caller.(s.Prog.caller);
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

(* One procedure's flat LMOD/LUSE union — Frontend.Local.flat_union,
   restricted. *)
let flat_of_proc info prog pid per_stmt =
  let acc = Info.fresh info in
  Ir.Stmt.iter
    (fun s -> List.iter (fun v -> Bitvec.set acc v) (per_stmt prog s))
    (Prog.proc prog pid).Prog.body;
  acc

(* The first phase of Imod_plus.compute: folded IMOD plus the RMOD
   projection of every site, per caller, before the second nesting
   fold. *)
let aug_full prog ~imod ~(rmod : Rmod.result) =
  let result = Array.map Bitvec.copy imod in
  Prog.iter_sites prog (fun s ->
      let callee = Prog.proc prog s.Prog.callee in
      Array.iteri
        (fun i arg ->
          match arg with
          | Prog.Arg_value _ -> ()
          | Prog.Arg_ref lv ->
            if Rmod.modified rmod callee.Prog.formals.(i) then
              Bitvec.set result.(s.Prog.caller) (Ir.Expr.lvalue_base lv))
        s.Prog.args);
  result

let aug_of_proc prog ~imod ~(rmod : Rmod.result) ~sites q =
  let v = Bitvec.copy imod.(q) in
  List.iter
    (fun sid ->
      let s = Prog.site prog sid in
      let callee = Prog.proc prog s.Prog.callee in
      Array.iteri
        (fun i arg ->
          match arg with
          | Prog.Arg_value _ -> ()
          | Prog.Arg_ref lv ->
            if Rmod.modified rmod callee.Prog.formals.(i) then
              Bitvec.set v (Ir.Expr.lvalue_base lv))
        s.Prog.args)
    sites.by_caller.(q);
  v

(* Region form of Info.fold_up_nesting: [folded] is the fold of a
   previous [flat] family that differed, at most, at [seeds].  Only the
   seeds and their lexical ancestors can move; walk that cone deepest
   level first, skip an ancestor whose children all came out unchanged,
   and share every untouched vector.  Returns the procedures whose
   folded value actually changed. *)
let refold_region info prog ~flat ~folded ~seeds =
  let np = Prog.n_procs prog in
  let is_seed = Array.make np false in
  let in_cone = Array.make np false in
  List.iter (fun q -> is_seed.(q) <- true) seeds;
  let rec mark q =
    if not in_cone.(q) then begin
      in_cone.(q) <- true;
      match (Prog.proc prog q).Prog.parent with
      | Some parent -> mark parent
      | None -> ()
    end
  in
  List.iter mark seeds;
  let cone =
    List.init np Fun.id
    |> List.filter (fun q -> in_cone.(q))
    |> List.sort (fun a b ->
           compare (Prog.proc prog b).Prog.level (Prog.proc prog a).Prog.level)
  in
  let result = Array.copy folded in
  let changed = Array.make np false in
  List.iter
    (fun q ->
      let pr = Prog.proc prog q in
      let must =
        is_seed.(q) || List.exists (fun ch -> changed.(ch)) pr.Prog.nested
      in
      if must then begin
        let v = Bitvec.copy flat.(q) in
        List.iter
          (fun ch ->
            let esc = Bitvec.copy result.(ch) in
            ignore (Bitvec.inter_into ~src:(Info.non_local info ch) ~dst:esc);
            ignore (Bitvec.union_into ~src:esc ~dst:v))
          pr.Prog.nested;
        if not (Bitvec.equal v folded.(q)) then begin
          result.(q) <- v;
          changed.(q) <- true
        end
      end)
    cone;
  (result, List.filter (fun q -> changed.(q)) cone)

let rebind (r : Rmod.result) binding = { r with Rmod.binding }

let build_caches ?pool (a : Analyze.t) =
  let prog = a.Analyze.prog in
  {
    imod_flat = Frontend.Local.imod_flat ?pool a.Analyze.info;
    iuse_flat = Frontend.Local.iuse_flat ?pool a.Analyze.info;
    imod_aug = aug_full prog ~imod:a.Analyze.imod ~rmod:a.Analyze.rmod;
    iuse_aug = aug_full prog ~imod:a.Analyze.iuse ~rmod:a.Analyze.ruse;
    sites = site_index prog;
  }

let create ?(threshold = 0.5) ?pool ?(provenance = false) prog =
  let analysis = Analyze.run ?pool ~provenance prog in
  {
    threshold;
    pool;
    provenance;
    analysis;
    caches = build_caches ?pool analysis;
    edits = 0;
    lint_cache = None;
    dataflow = None;
  }

(* Adopt an existing batch result instead of re-running it.  The
   analysis server creates one engine per client session over a shared
   registry entry, so re-entry must cost only the caches: the adopted
   record is treated as read-only (the solvers' [resolve]s copy before
   they write; every edit replaces [t.analysis] wholesale), which keeps a
   still-unedited session's queries reading the same vectors as the
   registry base. *)
let of_analysis ?(threshold = 0.5) ?pool (analysis : Analyze.t) =
  {
    threshold;
    pool;
    provenance = analysis.Analyze.provenance <> None;
    analysis;
    caches = build_caches ?pool analysis;
    edits = 0;
    lint_cache = None;
    dataflow = None;
  }

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

let full t prog reason =
  Obs.Metric.incr fallbacks_c;
  let analysis = Analyze.run ?pool:t.pool ~provenance:t.provenance prog in
  t.analysis <- analysis;
  t.caches <- build_caches ?pool:t.pool analysis;
  t.dataflow <- None;
  let resolved = 2 * Prog.n_procs prog in
  Obs.Metric.add procs_resolved_c resolved;
  { fallback = Some reason; procs_resolved = resolved }

(* One side (MOD or USE) of the seed pipeline: flat → nesting fold →
   β re-solve → IMOD+ recompute.  Returns everything the GMOD stage
   needs, changed-sets included. *)
let solve_side ~info ~prog ~binding ~graph_changed ~flat ~old_flat ~old_folded
    ~flat_seeds ~(old : Rmod.result) ~rmod_label =
  let changed_flat =
    List.filter (fun q -> not (Bitvec.equal flat.(q) old_flat.(q))) flat_seeds
  in
  let folded, folded_changed =
    if changed_flat = [] then (old_folded, [])
    else refold_region info prog ~flat ~folded:old_folded ~seeds:changed_flat
  in
  let r, changed_nodes =
    if graph_changed then begin
      let r = Rmod.solve ~label:rmod_label binding ~imod:folded in
      let changed = ref [] in
      Array.iteri
        (fun node b -> if b <> old.Rmod.rmod.(node) then changed := node :: !changed)
        r.Rmod.rmod;
      (r, !changed)
    end
    else if folded_changed = [] then (rebind old binding, [])
    else
      Rmod.resolve ~label:(rmod_label ^ ".region") (rebind old binding)
        ~imod:folded ~changed_procs:folded_changed
  in
  (folded, folded_changed, r, changed_nodes)

let aug_and_plus ~info ~prog ~sites ~folded ~folded_changed ~(rmod : Rmod.result)
    ~changed_nodes ~old_aug ~old_plus ~extra_seeds =
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
          let v = aug_of_proc prog ~imod:folded ~rmod ~sites q in
          if not (Bitvec.equal v old_aug.(q)) then begin
            aug.(q) <- v;
            changed := q :: !changed
          end)
        aug_seeds;
      (aug, !changed)
    end
  in
  let plus, plus_changed =
    if aug_changed = [] then (old_plus, [])
    else refold_region info prog ~flat:aug ~folded:old_plus ~seeds:aug_changed
  in
  (aug, plus, plus_changed)

let incremental t prog kind =
  let old = t.analysis in
  let c = t.caches in
  let np = Prog.n_procs prog in
  let info = Info.with_prog old.Analyze.info prog in
  let graph_changed, call, binding, sites, flat_seeds, shape_seeds =
    match kind with
    | `Body proc ->
      ( false,
        { old.Analyze.call with Call.prog },
        { old.Analyze.binding with Binding.prog },
        c.sites,
        [ proc ],
        [] )
    | `Shape (caller, local_sets_touched) ->
      ( true,
        Call.build prog,
        Binding.build prog,
        site_index prog,
        (if local_sets_touched then [ caller ] else []),
        [ caller ] )
  in
  (* Local re-analysis of the touched procedures only. *)
  let imod_flat, iuse_flat =
    match flat_seeds with
    | [] -> (c.imod_flat, c.iuse_flat)
    | seeds ->
      let im = Array.copy c.imod_flat and iu = Array.copy c.iuse_flat in
      List.iter
        (fun q ->
          im.(q) <- flat_of_proc info prog q Frontend.Local.lmod_stmt;
          iu.(q) <- flat_of_proc info prog q Frontend.Local.luse_stmt)
        seeds;
      (im, iu)
  in
  let imod, imod_changed, rmod, rmod_changed =
    solve_side ~info ~prog ~binding ~graph_changed ~flat:imod_flat
      ~old_flat:c.imod_flat ~old_folded:old.Analyze.imod ~flat_seeds
      ~old:old.Analyze.rmod ~rmod_label:"rmod"
  in
  let iuse, iuse_changed, ruse, ruse_changed =
    solve_side ~info ~prog ~binding ~graph_changed ~flat:iuse_flat
      ~old_flat:c.iuse_flat ~old_folded:old.Analyze.iuse ~flat_seeds
      ~old:old.Analyze.ruse ~rmod_label:"ruse"
  in
  let imod_aug, imod_plus, imod_plus_changed =
    aug_and_plus ~info ~prog ~sites ~folded:imod ~folded_changed:imod_changed
      ~rmod ~changed_nodes:rmod_changed ~old_aug:c.imod_aug
      ~old_plus:old.Analyze.imod_plus ~extra_seeds:shape_seeds
  in
  let iuse_aug, iuse_plus, iuse_plus_changed =
    aug_and_plus ~info ~prog ~sites ~folded:iuse ~folded_changed:iuse_changed
      ~rmod:ruse ~changed_nodes:ruse_changed ~old_aug:c.iuse_aug
      ~old_plus:old.Analyze.iuse_plus ~extra_seeds:shape_seeds
  in
  (* GMOD/GUSE: re-solve the condensation-ancestor cone of everything
     whose seed (or out-edge set) changed; beyond the threshold a full
     run is cheaper than the bookkeeping. *)
  let nested = Prog.max_level prog > 1 in
  let gmod, guse, resolved =
    if nested then
      (* The multi-level findgmod has no region form; both sides rerun
         in full (the rest of the pipeline above was still shared). *)
      ( Core.Gmod_nested.solve info call ~imod_plus,
        Core.Gmod_nested.solve ~label:"guse" info call ~imod_plus:iuse_plus,
        2 * np )
    else begin
      let side seeds plus cached =
        match List.sort_uniq compare (seeds @ shape_seeds) with
        | [] -> (cached, 0)
        | seeds ->
          let dirty =
            Graphs.Reach.ancestors call.Call.graph (Bitvec.of_list np seeds)
          in
          let card = Bitvec.cardinal dirty in
          if float_of_int card > t.threshold *. float_of_int np then
            raise
              (Fallback
                 (Printf.sprintf "dirty fraction %d/%d over threshold" card np));
          ( Gmod.solve_region ?pool:t.pool info call ~seed:plus ~dirty ~cached,
            card )
      in
      let gmod, n_mod = side imod_plus_changed imod_plus old.Analyze.gmod in
      let guse, n_use = side iuse_plus_changed iuse_plus old.Analyze.guse in
      (gmod, guse, n_mod + n_use)
    end
  in
  (* A body edit leaves the site table — and therefore the alias pairs
     and their recorded reasons — untouched; a shape edit recomputes
     both, recording into a fresh table. *)
  let alias, alias_table =
    if graph_changed then begin
      let table =
        if t.provenance then Some (Core.Provenance.create_alias_table ())
        else None
      in
      (Core.Alias.compute ?provenance:table info, table)
    end
    else
      ( old.Analyze.alias,
        match old.Analyze.provenance with
        | Some p -> Some p.Core.Provenance.alias
        | None -> None )
  in
  (* MUSTMOD rides its own condensation: a body edit reseeds the
     edited procedure plus every procedure whose GMOD (the ∩-cap)
     actually moved, and change propagation walks the pruned
     condensation-ancestor cone; a shape edit rebuilt the call graph,
     so the old condensation is stale and the solve reruns. *)
  let mustmod =
    if graph_changed then Core.Mustmod.solve ?pool:t.pool info call ~alias ~gmod
    else begin
      let gmod_changed =
        if gmod == old.Analyze.gmod then []
        else
          List.filter
            (fun q -> not (Bitvec.equal gmod.(q) old.Analyze.gmod.(q)))
            (List.init np Fun.id)
      in
      let seeds = List.sort_uniq compare (flat_seeds @ gmod_changed) in
      fst
        (Core.Mustmod.resolve old.Analyze.mustmod info ~alias ~gmod
           ~changed_procs:seeds)
    end
  in
  let summary = Core.Summary.make info ~gmod ~guse ~alias in
  (* Provenance is a post-pass over the final solutions, so a cone
     re-solve just rebuilds the forest against whatever the caches now
     hold — reasons can never go stale. *)
  let provenance =
    if not t.provenance then None
    else begin
      let table =
        match alias_table with
        | Some tbl -> tbl
        | None -> Core.Provenance.create_alias_table ()
      in
      let must = Core.Provenance.create_must_table () in
      Core.Mustmod.ground_reasons mustmod must;
      Some
        (Core.Provenance.compute ~must info ~binding ~imod ~iuse ~rmod ~ruse
           ~imod_plus ~iuse_plus ~gmod ~guse ~alias:table)
    end
  in
  t.analysis <-
    {
      Analyze.prog;
      info;
      call;
      binding;
      (* This path only runs for pointer-free programs ([apply] forces
         a full re-analysis whenever pointers are present), so the
         projection caches carried over are the trivial ones. *)
      ptsto = old.Analyze.ptsto;
      deref = old.Analyze.deref;
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
      provenance;
    };
  t.caches <- { imod_flat; iuse_flat; imod_aug; iuse_aug; sites };
  (match t.dataflow with
  | None -> ()
  | Some d -> (
    match kind with
    | `Body proc -> ignore (Dataflow.Driver.refresh d t.analysis ~edited:[ proc ])
    | `Shape _ ->
      (* Call-shape edits renumber the site table the cached CFGs
         index into. *)
      Dataflow.Driver.reset d t.analysis));
  Obs.Metric.add procs_resolved_c resolved;
  { fallback = None; procs_resolved = resolved }

let apply t edit =
  let t0 = Obs.Clock.now () in
  let outcome =
    Obs.Span.with_ "incremental.resolve" @@ fun () ->
    let old_prog = t.analysis.Analyze.prog in
    let kind = Edit.kind old_prog edit in
    let prog = Edit.apply old_prog edit in
    Obs.Metric.incr edits_c;
    t.edits <- t.edits + 1;
    match kind with
    | _ when Ptsto.has_pointers old_prog || Ptsto.has_pointers prog ->
      (* Points-to is a whole-program, flow-insensitive solution: any
         edit can redirect a pointer and move the dereference
         projection every cached phase was built with.  Re-deriving
         which regions that invalidates costs as much as re-solving,
         so pointer programs always take the full path. *)
      full t prog "pointer program: points-to solution may shift"
    | Edit.Structural -> full t prog "structural edit"
    | Edit.Body { proc } -> (
      try incremental t prog (`Body proc) with Fallback r -> full t prog r)
    | Edit.Call_shape { caller; local_sets_touched } -> (
      try incremental t prog (`Shape (caller, local_sets_touched))
      with Fallback r -> full t prog r)
  in
  Obs.Metric.observe edit_hist (Obs.Clock.now () -. t0);
  outcome
