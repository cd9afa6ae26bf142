module Info = Ir.Info
module Analyze = Core.Analyze

let edits_c = Obs.Metric.counter "incremental.edits"
let procs_resolved_c = Obs.Metric.counter "incremental.procs_resolved"
let edit_hist = Obs.Metric.histogram "incremental.edit_s"

type t = {
  pool : Par.Pool.t option;
  mutable analysis : Analyze.t;
  mutable sites : Analyze.site_index option;
      (** The site index of [analysis]'s program, built by the first
          edit that diffs against it; [None] after adoption and after
          an edit that re-solved everything. *)
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

(* Adopt an existing batch result instead of re-running it.  The
   analysis server creates one engine per client session over a shared
   registry entry, so adoption computes nothing: the adopted record is
   treated as read-only (the solvers' [resolve]s copy before they
   write; every edit replaces [t.analysis] wholesale), which keeps a
   still-unedited session's queries reading the same vectors as the
   registry base. *)
let of_analysis ?pool (analysis : Analyze.t) =
  { pool; analysis; sites = None; edits = 0; lint_cache = None; dataflow = None }

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
    (* What the edit leaves of the previous analysis.  A body or
       call-shape edit that moves neither the points-to projection nor
       the [&x] set (every previous phase read both through [info]) keeps
       every id and every phase's input outside the edited procedure,
       so the solve diffs against the previous vectors.  Any other edit
       leaves no previous vector in the right coordinates, and the
       solve runs over the whole program, as the batch run does. *)
    let change =
      match kind with
      | Edit.Body { proc } -> Some (Analyze.Body proc)
      | Edit.Call_shape { caller; local_sets_touched } ->
        Some (Analyze.Call_shape { caller; local_sets_touched })
      | Edit.Structural -> None
    in
    let same_projection =
      match (old.Analyze.ptsto, ptsto) with
      | None, None -> true
      | Some a, Some b -> Ptsto.same_projection a b
      | Some _, None | None, Some _ -> false
    in
    let previous =
      match change with
      | Some change when same_projection ->
        Option.map
          (fun info ->
            let sites =
              match (change, t.sites) with
              | Analyze.Body _, Some sites -> sites
              | _ -> Analyze.site_index prog
            in
            (info, { Analyze.analysis = old; change; sites }))
          (Info.with_prog ?pointers old.Analyze.info prog)
      | Some _ | None -> None
    in
    let info =
      match previous with
      | Some (info, _) -> info
      | None -> Obs.Span.with_ "info" (fun () -> Info.make ?pointers prog)
    in
    let previous = Option.map snd previous in
    let analysis, resolved =
      Analyze.solve ?pool:t.pool ~provenance:(old.Analyze.provenance <> None)
        ?previous info ptsto
    in
    t.analysis <- analysis;
    t.sites <- Option.map (fun p -> p.Analyze.sites) previous;
    (* Stale after this edit anyway, and its findings' witness thunks
       hold the analysis just replaced. *)
    t.lint_cache <- None;
    (match (t.dataflow, previous) with
    | None, _ -> ()
    | Some d, Some { Analyze.change = Body proc; _ } ->
      ignore (Dataflow.Driver.refresh d analysis ~edited:[ proc ])
    | Some d, (Some { Analyze.change = Call_shape _; _ } | None) ->
      (* Every other edit renumbers the site table the cached CFGs
         index into, or moves what their transfer functions read. *)
      Dataflow.Driver.reset d analysis);
    Obs.Metric.add procs_resolved_c resolved;
    { procs_resolved = resolved }
  in
  Obs.Metric.observe edit_hist (Obs.Clock.now () -. t0);
  outcome
