(* Differential testing of the incremental engine: after every edit of
   every script, the engine's analysis must be bit-identical to a
   from-scratch [Core.Analyze.run] on the edited program (operation
   counters excepted), and single-procedure edits must re-solve only
   the condensation-ancestor cone, not the whole program. *)

open Helpers
module A = Core.Analyze
module Engine = Incremental.Engine
module Edit = Incremental.Edit

let bool_arrays_equal = Array.for_all2 Bool.equal

(* The headline guarantee, field by field. *)
let check_equiv msg (inc : A.t) (batch : A.t) =
  let ok name b = if not b then Alcotest.failf "%s: %s differs" msg name in
  ok "RMOD" (bool_arrays_equal inc.A.rmod.Core.Rmod.rmod batch.A.rmod.Core.Rmod.rmod);
  ok "RUSE" (bool_arrays_equal inc.A.ruse.Core.Rmod.rmod batch.A.ruse.Core.Rmod.rmod);
  ok "IMOD+" (gmod_arrays_equal inc.A.imod_plus batch.A.imod_plus);
  ok "IUSE+" (gmod_arrays_equal inc.A.iuse_plus batch.A.iuse_plus);
  ok "GMOD" (gmod_arrays_equal inc.A.gmod batch.A.gmod);
  ok "GUSE" (gmod_arrays_equal inc.A.guse batch.A.guse);
  ok "MUSTMOD"
    (gmod_arrays_equal inc.A.mustmod.Core.Mustmod.mustmod
       batch.A.mustmod.Core.Mustmod.mustmod);
  ok "IMUSTDEF"
    (gmod_arrays_equal inc.A.mustmod.Core.Mustmod.intra
       batch.A.mustmod.Core.Mustmod.intra);
  ok "demoted"
    (gmod_arrays_equal inc.A.mustmod.Core.Mustmod.demoted
       batch.A.mustmod.Core.Mustmod.demoted);
  ok "points-to"
    (match (inc.A.ptsto, batch.A.ptsto) with
    | None, None -> true
    | Some p, Some q -> Ptsto.tier p = Ptsto.tier q && Ptsto.same_projection p q
    | Some _, None | None, Some _ -> false);
  for sid = 0 to Ir.Prog.n_sites batch.A.prog - 1 do
    ok
      (Printf.sprintf "MOD(s%d)" sid)
      (Bitvec.equal (A.mod_of_site inc sid) (A.mod_of_site batch sid));
    ok
      (Printf.sprintf "USE(s%d)" sid)
      (Bitvec.equal (A.use_of_site inc sid) (A.use_of_site batch sid))
  done

let rec spans_named name (s : Obs.Span.t) =
  (if s.Obs.Span.name = name then [ s ] else [])
  @ List.concat_map (spans_named name) s.Obs.Span.children

(* Did an edit re-solve every procedure?  Only then does the engine run
   the whole-graph GMOD solve (span [gmod]); a cone re-solve runs under
   [gmod.region]. *)
let all_dirty span = spans_named "gmod" span <> []

(* The counters an all-dirty edit and the batch run must agree on. *)
let pipeline_counters =
  [ "bitvec.word_ops"; "bitvec.vector_ops"; "rmod.steps"; "mustmod.facts" ]

(* [f ()] and what it added to each of [pipeline_counters]. *)
let counted f =
  let snap = Obs.Metric.snapshot () in
  let r = f () in
  ( r,
    List.map
      (fun name ->
        Obs.Metric.value_since ~since:snap (Option.get (Obs.Metric.find name)))
      pipeline_counters )

(* Run a generated script through the engine, checking equivalence (and
   that the engine's program is the one the script built) after every
   single edit, batch and engine at the same points-to tier.  A body or
   call-shape edit of a pointer-free program must take the region
   path, however large its cone; an edit that re-solves every procedure
   (structural, or moving the points-to projection or the [&x] set)
   must count exactly what the batch run of the edited program counts,
   since both are one pipeline.  Returns, per edit, its kind and
   whether it re-solved every procedure. *)
let run_script ?ptsto prog script =
  let engine = Engine.of_analysis (A.run ?ptsto prog) in
  List.mapi
    (fun i (edit, expected) ->
      let before = Engine.prog engine in
      let label = Printf.sprintf "edit %d (%s)" i (Edit.to_string before edit) in
      let kind = Edit.kind before edit in
      let ((_ : Engine.outcome), span), edit_counts =
        counted (fun () -> Obs.Span.collect "edit" (fun () -> Engine.apply engine edit))
      in
      (match kind with
      | (Edit.Body _ | Edit.Call_shape _)
        when all_dirty span && not (Ptsto.has_pointers before) ->
        Alcotest.failf "%s: re-solved every procedure" label
      | _ -> ());
      if Engine.prog engine <> expected then
        Alcotest.failf "%s: engine program diverges from script program" label;
      let batch, batch_counts = counted (fun () -> A.run ?ptsto expected) in
      check_equiv label (Engine.analysis engine) batch;
      if all_dirty span then
        List.iter2
          (fun name (e, b) ->
            if e <> b then
              Alcotest.failf "%s: the edit counted %d %s, the batch run %d" label
                e name b)
          pipeline_counters
          (List.combine edit_counts batch_counts);
      (edit, kind, all_dirty span))
    script

let prop_script ?ptsto of_seed steps seed =
  let prog = of_seed seed in
  let rand = Random.State.make [| seed; 0xed17 |] in
  let script = Workload.Edits.gen ~rand ~steps prog in
  let (_ : _ list) = run_script ?ptsto prog script in
  true

(* Pointer programs for the equivalence checks: the three pointer
   families, and random pointer programs whose procedures take the
   addresses of their own locals. *)
let ptr_of_seed seed =
  let n = 4 + (seed / 4 mod 8) in
  match seed mod 4 with
  | 0 -> Workload.Families.ptr_chain n
  | 1 -> Workload.Families.ptr_funnel n
  | 2 -> Workload.Families.ptr_heap n
  | _ -> ptr_prog_of_seed seed

let arb_ptr_seed =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "pointer seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

let tiers = [ Ptsto.Steensgaard; Ptsto.Andersen ]

(* Directed cases: one per edit constructor, on the textbook families,
   with spot checks on the answers as well as full equivalence. *)

let apply_checked ?(cone = false) engine edit =
  let before = Engine.prog engine in
  let out, span = Obs.Span.collect "edit" (fun () -> Engine.apply engine edit) in
  if cone && all_dirty span then
    Alcotest.failf "edit %s re-solved every procedure" (Edit.to_string before edit);
  let prog = Engine.prog engine in
  (match Ir.Validate.run prog with
  | Ok () -> ()
  | Error _ ->
    Alcotest.failf "edit %s left an invalid program" (Edit.to_string before edit));
  check_equiv (Edit.to_string before edit) (Engine.analysis engine) (A.run prog);
  out

(* Procedures that reach [pid] in the call graph, [pid] included: the
   condensation-ancestor cone of its component. *)
let cone_size prog pid =
  let seen = Array.make (Ir.Prog.n_procs prog) false in
  let rec visit q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Ir.Prog.iter_sites prog (fun s ->
          if s.Ir.Prog.callee = q then visit s.Ir.Prog.caller)
    end
  in
  visit pid;
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen

let test_add_assign_mutual () =
  let prog = Workload.Families.mutual_pair () in
  let engine = Engine.create prog in
  let (_ : Engine.outcome) =
    apply_checked ~cone:true engine
      (Edit.Add_assign
         {
           proc = proc_id prog "a";
           target = var_id prog "g0";
           value = Ir.Expr.Int 7;
         })
  in
  let a = Engine.analysis engine in
  check_var_set (Engine.prog engine) "GMOD(main) after a writes g0" [ "g0" ]
    (A.gmod_of a (proc_id prog "main"))

let test_remove_assign_mutual () =
  let prog = Workload.Families.mutual_pair () in
  let engine = Engine.create prog in
  (* b's body is [call a(y); y := 1] — drop the assignment and the
     whole mutual SCC stops modifying anything. *)
  let (_ : Engine.outcome) =
    apply_checked engine
      (Edit.Remove_assign { proc = proc_id prog "b"; index = 1 })
  in
  let a = Engine.analysis engine in
  check_bool "RMOD(a.x) gone" false
    (Core.Rmod.modified a.A.rmod (var_id prog "a.x"));
  check_bool "RMOD(b.y) gone" false
    (Core.Rmod.modified a.A.rmod (var_id prog "b.y"))

let test_add_call_diamond () =
  let prog = Workload.Families.diamond () in
  let engine = Engine.create prog in
  let (_ : Engine.outcome) =
    apply_checked engine
      (Edit.Add_call
         { caller = proc_id prog "a"; callee = proc_id prog "b"; args = [||] })
  in
  ()

let test_remove_call_diamond () =
  let prog = Workload.Families.diamond () in
  (* Cut b's call to c: GMOD(b) loses g0, GMOD(main) keeps it via a. *)
  let sid =
    match Ir.Prog.sites_of prog (proc_id prog "b") with
    | [ s ] -> s.Ir.Prog.sid
    | _ -> Alcotest.fail "diamond: b should have exactly one site"
  in
  let engine = Engine.create prog in
  let (_ : Engine.outcome) = apply_checked engine (Edit.Remove_call { sid }) in
  let a = Engine.analysis engine in
  check_var_set (Engine.prog engine) "GMOD(b) empty" []
    (A.gmod_of a (proc_id prog "b"));
  check_var_set (Engine.prog engine) "GMOD(main) still g0" [ "g0" ]
    (A.gmod_of a (proc_id prog "main"))

let test_retarget_diamond () =
  let prog = Workload.Families.diamond () in
  (* Point b's call at a instead of c — same empty signature. *)
  let sid =
    match Ir.Prog.sites_of prog (proc_id prog "b") with
    | [ s ] -> s.Ir.Prog.sid
    | _ -> Alcotest.fail "diamond: b should have exactly one site"
  in
  let engine = Engine.create prog in
  let (_ : Engine.outcome) =
    apply_checked engine (Edit.Retarget_call { sid; callee = proc_id prog "a" })
  in
  let a = Engine.analysis engine in
  check_var_set (Engine.prog engine) "GMOD(b) via a -> c" [ "g0" ]
    (A.gmod_of a (proc_id prog "b"))

let test_add_remove_proc_diamond () =
  let prog = Workload.Families.diamond () in
  let engine = Engine.create prog in
  (* A structural edit renumbers every id and re-solves every procedure;
     [apply_checked] holds GMOD/GUSE, MUSTMOD and per-site MOD/USE to
     [Analyze.run] on the edited program. *)
  let out =
    apply_checked engine
      (Edit.Add_proc
         { name = "fresh"; writes = [ var_id prog "g0" ]; reads = [] })
  in
  let prog' = Engine.prog engine in
  check_int "every procedure re-solved" (2 * Ir.Prog.n_procs prog')
    out.Engine.procs_resolved;
  let a = Engine.analysis engine in
  (* Uncalled, so its effect shows in GMOD(fresh) but not GMOD(main). *)
  check_var_set prog' "GMOD(fresh)" [ "g0" ] (A.gmod_of a (proc_id prog' "fresh"));
  let (_ : Engine.outcome) =
    apply_checked engine (Edit.Remove_proc { pid = proc_id prog' "fresh" })
  in
  check_int "back to the original shape" (Ir.Prog.n_procs prog)
    (Ir.Prog.n_procs (Engine.prog engine))

let test_nested_body_edit () =
  let prog = Workload.Families.nested_textbook () in
  let engine = Engine.create prog in
  let (_ : Engine.outcome) =
    apply_checked ~cone:true engine
      (Edit.Add_assign
         {
           proc = proc_id prog "helper";
           target = var_id prog "helper.h";
           value = Ir.Expr.Int 0;
         })
  in
  let a = Engine.analysis engine in
  check_bool "RMOD(helper.h)" true
    (Core.Rmod.modified a.A.rmod (var_id prog "helper.h"))

let test_nested_script rand =
  let prog = Workload.Families.nested_textbook () in
  let script = Workload.Edits.gen ~rand ~steps:12 prog in
  check_bool "script not empty" true (run_script prog script <> [])

(* Nested programs take the same region re-solve as flat ones: a body
   edit in a deep procedure of pascal_style re-solves its condensation
   ancestors only, not both sides in full, even though the cone holds
   the program's large recursive component. *)
let test_nested_region () =
  let prog = Workload.Families.pascal_style ~seed:1 ~n:64 ~depth:4 in
  let np = Ir.Prog.n_procs prog in
  let last = Ir.Prog.proc prog (np - 1) in
  check_bool "edited procedure is nested" true (last.Ir.Prog.level > 1);
  let global = ref (-1) in
  Ir.Prog.iter_vars prog (fun v ->
      if v.Ir.Prog.kind = Ir.Prog.Global && !global < 0 then global := v.Ir.Prog.vid);
  let edit =
    Edit.Add_assign
      { proc = last.Ir.Prog.pid; target = !global; value = Ir.Expr.Int 1 }
  in
  let out = apply_checked ~cone:true (Engine.create prog) edit in
  (* Assigning a constant moves GMOD only: one side, and on it the
     cone, not every procedure. *)
  let cone = cone_size prog last.Ir.Prog.pid in
  check_bool "cone is not the whole program" true (cone < np);
  check_int "resolves exactly the cone" cone out.Engine.procs_resolved

(* Satellite 3: a shape-preserving edit on [ref_chain 64] must re-solve
   O(SCC-cone) procedures, not O(N).  The cone of p1 is {main, p1} on
   the MOD side and nothing on the USE side. *)
let test_opcount_ref_chain () =
  let prog = Workload.Families.ref_chain 64 in
  let engine = Engine.create prog in
  let resolved =
    Option.get (Obs.Metric.find "incremental.procs_resolved")
  in
  let snap = Obs.Metric.snapshot () in
  let out =
    apply_checked ~cone:true engine
      (Edit.Add_assign
         {
           proc = proc_id prog "p1";
           target = var_id prog "g0";
           value = Ir.Expr.Int 1;
         })
  in
  let delta = Obs.Metric.value_since ~since:snap resolved in
  check_int "outcome agrees with registry" delta out.Engine.procs_resolved;
  if delta > 4 then
    Alcotest.failf "edit on p1 re-solved %d procedures (O(N)=64, want O(SCC))"
      delta;
  (* A mid-chain edit's ancestor cone is the upper half of the chain —
     bigger, but still region-local. *)
  let snap = Obs.Metric.snapshot () in
  let (_ : Engine.outcome) =
    apply_checked ~cone:true engine
      (Edit.Add_assign
         {
           proc = proc_id prog "p31";
           target = var_id prog "g0";
           value = Ir.Expr.Int 1;
         })
  in
  let delta = Obs.Metric.value_since ~since:snap resolved in
  if delta >= 64 then
    Alcotest.failf "edit on p31 re-solved %d procedures (>= N)" delta;
  (* Deep in the chain the cone is nearly everything, and it still
     re-solves that cone alone: p63 and its ancestors p62..p1 and main
     on the MOD side, nothing on the USE side. *)
  let p63 = proc_id prog "p63" in
  let out =
    apply_checked ~cone:true engine
      (Edit.Add_assign
         {
           proc = p63;
           target = var_id prog "g0";
           value = Ir.Expr.Int 1;
         })
  in
  check_int "cone of p63" 64 (cone_size prog p63);
  check_int "resolves exactly the cone" 64 out.Engine.procs_resolved

(* Pointer scripts cover every edit kind under both tiers, and both
   paths a non-structural edit of a pointer program can take: the cone,
   while the points-to projection and the [&x] set hold still, and
   every procedure dirty once either moves. *)
let edit_name = function
  | Edit.Add_assign _ -> "add-assign"
  | Edit.Remove_assign _ -> "remove-assign"
  | Edit.Add_call _ -> "add-call"
  | Edit.Remove_call _ -> "remove-call"
  | Edit.Retarget_call _ -> "retarget-call"
  | Edit.Add_proc _ -> "add-proc"
  | Edit.Remove_proc _ -> "remove-proc"

let test_ptr_scripts () =
  let seen = Hashtbl.create 8 in
  let cone = ref 0 and moved = ref 0 in
  List.iter
    (fun ptsto ->
      for seed = 0 to 11 do
        let prog = ptr_of_seed seed in
        let rand = Random.State.make [| seed; 0x9e1d |] in
        List.iter
          (fun (edit, kind, all) ->
            Hashtbl.replace seen (edit_name edit) ();
            match kind with
            | Edit.Structural -> ()
            | Edit.Body _ | Edit.Call_shape _ -> incr (if all then moved else cone))
          (run_script ~ptsto prog (Workload.Edits.gen ~rand ~steps:20 prog))
      done)
    tiers;
  List.iter
    (fun name -> check_bool name true (Hashtbl.mem seen name))
    [
      "add-assign";
      "remove-assign";
      "add-call";
      "remove-call";
      "retarget-call";
      "add-proc";
      "remove-proc";
    ];
  check_bool "some pointer edits take the cone path" true (!cone > 0);
  check_bool "some pointer edits move the projection" true (!moved > 0)

(* [Script.render] must be a left inverse of [Script.parse_line]
   against the pre-edit program — the contract the analysis server's
   load generator relies on to replay [Workload.Edits] over the wire.
   [None] is legitimate (no concrete syntax); a rendered line that
   fails to parse, parses as blank, or comes back as a different edit
   is not. *)
let prop_render_roundtrip of_seed steps seed =
  let prog = of_seed seed in
  let rand = Random.State.make [| seed; 0x5c71 |] in
  let script = Workload.Edits.gen ~rand ~steps prog in
  let rec go prog = function
    | [] -> true
    | (edit, after) :: rest ->
      (match Incremental.Script.render prog edit with
      | None -> ()
      | Some line -> (
        match Incremental.Script.parse_line prog line with
        | Ok (Some edit') ->
          if edit' <> edit then
            QCheck.Test.fail_reportf "render/parse mismatch on %S: %s vs %s"
              line
              (Edit.to_string prog edit')
              (Edit.to_string prog edit)
        | Ok None ->
          QCheck.Test.fail_reportf "rendered line %S parsed as blank" line
        | Error msg ->
          QCheck.Test.fail_reportf "rendered line %S failed to parse: %s" line
            msg));
      go after rest
  in
  go prog script

(* The shared callee projections (eq. 8) ride the edit: a head edit on
   global_chain 1024 (cone {main, p1}; [g0 := g0 + 1] in p1 moves the
   GUSE of main and p1, every GMOD already holds g0) rebuilds the shared vector of
   only the procedures whose GMOD or GUSE moved — one copy and one
   intersection each — so the [summary] span spends two vector ops per
   moved vector, not two per procedure and side. *)
let test_summary_rebuild_head () =
  let prog = Workload.Families.global_chain 1024 in
  let engine = Engine.create prog in
  let g0 = var_id prog "g0" in
  let edit =
    Edit.Add_assign
      {
        proc = proc_id prog "p1";
        target = g0;
        value = Ir.Expr.Binop (Ir.Expr.Add, Ir.Expr.Var g0, Ir.Expr.Int 1);
      }
  in
  let old = Engine.analysis engine in
  let (_ : Engine.outcome), span =
    Obs.Span.collect "edit" (fun () -> Engine.apply engine edit)
  in
  check_bool "cone path" false (all_dirty span);
  let a = Engine.analysis engine in
  let moved before after =
    let n = ref 0 in
    Array.iter2 (fun x y -> if not (Bitvec.equal x y) then incr n) before after;
    !n
  in
  let n_moved = moved old.A.gmod a.A.gmod + moved old.A.guse a.A.guse in
  check_int "moved vectors (GUSE of main and p1)" 2 n_moved;
  (match spans_named "summary" span with
  | [ s ] ->
    check_int "summary vector ops" (2 * n_moved) (Obs.Span.metric s "bitvec.vector_ops")
  | l -> Alcotest.failf "expected one summary span, got %d" (List.length l));
  check_equiv "head edit" a (A.run (Engine.prog engine))

(* [Engine.of_analysis] (the adoption path the server uses to give
   each session its own engine over one shared batch record) must
   track [Engine.create] exactly: same answers before any edit, and
   bit-identical analyses after every edit of any script. *)
let prop_of_analysis_equiv of_seed steps seed =
  let prog = of_seed seed in
  let rand = Random.State.make [| seed; 0x0fa1 |] in
  let script = Workload.Edits.gen ~rand ~steps prog in
  let created = Engine.create prog in
  let adopted = Engine.of_analysis (A.run prog) in
  check_equiv "pre-edit adoption" (Engine.analysis adopted)
    (Engine.analysis created);
  List.iteri
    (fun i (edit, expected) ->
      let (_ : Engine.outcome) = Engine.apply created edit in
      let (_ : Engine.outcome) = Engine.apply adopted edit in
      let label = Printf.sprintf "edit %d" i in
      check_equiv
        (label ^ " (created vs batch)")
        (Engine.analysis created) (A.run expected);
      check_equiv
        (label ^ " (adopted vs created)")
        (Engine.analysis adopted) (Engine.analysis created))
    script;
  true

(* With provenance on, every edit attaches a fresh lazy forest; forced,
   it must equal the forest of a batch run on the edited program, alias
   reasons included. *)
let check_forests msg (inc : A.t) (batch : A.t) =
  let module P = Core.Provenance in
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl [])
  in
  match (A.provenance_forest inc, A.provenance_forest batch) with
  | Some p, Some q ->
    let ok name b = if not b then Alcotest.failf "%s: %s reasons differ" msg name in
    ok "RMOD" (p.P.rmod = q.P.rmod);
    ok "RUSE" (p.P.ruse = q.P.ruse);
    ok "GMOD" (sorted p.P.gmod = sorted q.P.gmod);
    ok "GUSE" (sorted p.P.guse = sorted q.P.guse);
    ok "MUSTMOD" (sorted p.P.must = sorted q.P.must);
    ok "alias" (sorted p.P.alias = sorted q.P.alias)
  | _ -> Alcotest.failf "%s: provenance missing" msg

let prop_provenance_equiv ?ptsto of_seed steps seed =
  let prog = of_seed seed in
  let rand = Random.State.make [| seed; 0x9f0e |] in
  let script = Workload.Edits.gen ~rand ~steps prog in
  let engine = Engine.of_analysis (A.run ~provenance:true ?ptsto prog) in
  List.iteri
    (fun i (edit, expected) ->
      let (_ : Engine.outcome) = Engine.apply engine edit in
      check_forests
        (Printf.sprintf "edit %d" i)
        (Engine.analysis engine)
        (A.run ~provenance:true ?ptsto expected))
    script;
  true

(* Adoption costs nothing: the engine reads every family it diffs
   against (the condensations of RMOD, RUSE and MUSTMOD included)
   straight from the adopted record, so it runs no solver and no
   bit-vector operation. *)
let test_adopt_no_resolve () =
  List.iter
    (fun prog ->
      let a = A.run prog in
      let added =
        List.map
          (fun name -> (name, Option.get (Obs.Metric.find name)))
          [ "rmod.steps"; "mustmod.rounds"; "bitvec.vector_ops"; "bitvec.word_ops" ]
      in
      let snap = Obs.Metric.snapshot () in
      let (_ : Engine.t) = Engine.of_analysis a in
      List.iter
        (fun (name, h) ->
          check_int (name ^ " added by of_analysis") 0
            (Obs.Metric.value_since ~since:snap h))
        added)
    [
      Workload.Families.fortran_style ~seed:7 ~n:64;
      Workload.Families.pascal_style ~seed:7 ~n:64 ~depth:4;
    ]

(* A server session's engine re-solves from the registry's shared
   record; every solver must copy before it writes, so the record —
   solver state included — comes out of a session's edits unchanged. *)
let test_adopted_read_only () =
  List.iter
    (fun (prog, seed) ->
      let a = A.run prog in
      let digest x = Digest.to_hex (Digest.string (Marshal.to_string x [])) in
      let image () =
        [
          digest a.A.rmod;
          digest a.A.ruse;
          digest a.A.mustmod;
          digest a.A.imod_plus;
          digest a.A.gmod;
          digest a.A.guse;
        ]
      in
      let before = image () in
      let engine = Engine.of_analysis a in
      let rand = Random.State.make [| seed; 0x5e55 |] in
      let script = Workload.Edits.gen ~rand ~steps:12 prog in
      let cone = ref 0 in
      List.iter
        (fun (edit, _) ->
          let (_ : Engine.outcome), span =
            Obs.Span.collect "edit" (fun () -> Engine.apply engine edit)
          in
          if not (all_dirty span) then incr cone)
        script;
      check_bool "some edits took the region path" true (!cone > 0);
      Alcotest.(check (list string)) "adopted record unchanged" before (image ()))
    [
      (Workload.Families.fortran_style ~seed:3 ~n:32, 3);
      (Workload.Families.pascal_style ~seed:3 ~n:32 ~depth:3, 3);
      (ptr_prog_of_seed 3, 3);
    ]

(* --- region golden ---

   Digests of what the GMOD/GUSE cone re-solve computes over a fixed
   edit corpus (every non-structural edit takes the region path): per
   edit, whether it was structural (the [fallback] column, named for
   the full re-analysis structural edits once took), how many
   procedures it re-solved, the word and vector
   op counts of each [gmod.region] span, and the resulting GMOD/GUSE
   sets.  The corpus has cones that contain main and cones that do not
   (edits inside procedures an earlier edit added or cut off from
   main); any change to what a region re-solve computes, or to how
   many bit-vector operations it spends, changes a digest. *)

let region_digest_text prog ~seed =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let ints v = String.concat "," (List.map string_of_int (Bitvec.to_list v)) in
  let engine = Engine.create prog in
  let rand = Random.State.make [| seed; 0x6e61 |] in
  let main_clean = ref 0 and main_dirty = ref 0 in
  List.iteri
    (fun i (edit, _) ->
      let old = Engine.analysis engine in
      let structural = Edit.kind old.A.prog edit = Edit.Structural in
      let out, span =
        Obs.Span.collect "edit" (fun () -> Engine.apply engine edit)
      in
      let a = Engine.analysis engine in
      add "edit %d fallback %b resolved %d\n" i structural
        out.Engine.procs_resolved;
      List.iter
        (fun s ->
          add "region word_ops %d vector_ops %d\n"
            (Obs.Span.metric s "bitvec.word_ops")
            (Obs.Span.metric s "bitvec.vector_ops"))
        (spans_named "gmod.region" span);
      (* A side that ran recomputed main iff main was in its cone:
         clean entries share the cached vector. *)
      let side now before =
        let main = a.A.prog.Ir.Prog.main in
        if (not structural) && now != before then
          incr (if now.(main) == before.(main) then main_clean else main_dirty)
      in
      side a.A.gmod old.A.gmod;
      side a.A.guse old.A.guse;
      Array.iteri
        (fun pid g -> add "p%d gmod [%s] guse [%s]\n" pid (ints g) (ints a.A.guse.(pid)))
        a.A.gmod)
    (Workload.Edits.gen ~rand ~steps:12 prog);
  (Buffer.contents b, !main_clean, !main_dirty)

let region_golden_programs =
  let module F = Workload.Families in
  List.concat_map
    (fun seed ->
      [
        (Printf.sprintf "fortran_style s%d" seed, fun () -> F.fortran_style ~seed ~n:24);
        (Printf.sprintf "fortran_fixed s%d" seed, fun () -> F.fortran_fixed ~seed ~n:24);
        (Printf.sprintf "dag_style s%d" seed, fun () -> F.dag_style ~seed ~n:24);
      ])
    [ 1; 2; 3 ]
  @ [
      ("ref_chain 16", fun () -> F.ref_chain 16);
      ("ref_cycle 8", fun () -> F.ref_cycle 8);
      ("mutual_pair", F.mutual_pair);
      ("diamond", F.diamond);
    ]
  @ List.init 12 (fun seed ->
        ( Printf.sprintf "gen %d" seed,
          fun () ->
            Workload.Gen.generate
              (Random.State.make [| seed; 0x6e67 |])
              { Workload.Gen.default with n_procs = 24; max_depth = 1 } ))

let region_digests =
  [
    ("fortran_style s1", "f669f5d0114426ef3ec2e94999e5edcc");
    ("fortran_fixed s1", "735c1b5a1eb7eba0abc4fff6a01200d4");
    ("dag_style s1", "f31b5e40f44770b2be6c5dd1a10ce531");
    ("fortran_style s2", "e217e9bd962e0efed0261bc14c184db9");
    ("fortran_fixed s2", "5f954dbf60ac700a64ad0dbac168bb93");
    ("dag_style s2", "7a37866927d102c235983a582705af1a");
    ("fortran_style s3", "c2805838f370490fc2ac36340efa5256");
    ("fortran_fixed s3", "453f67f08087099d782a3726fbf8360c");
    ("dag_style s3", "7dd9e2c68be2ba54b7ab47dab3fbb7c6");
    ("ref_chain 16", "cc7fb7f6d82b8c706fa985c1099e9832");
    ("ref_cycle 8", "11aa40b29222946581180f826759d9d7");
    ("mutual_pair", "e4a1d8c021e3abd8de5ee97a5b8bccff");
    ("diamond", "c3c345765edab2491ffbd6fca668ede8");
    ("gen 0", "c813f8fe39e6a369fa4c07c36d764d55");
    ("gen 1", "33ae87e0ab45c5e59d33a31c79c11771");
    ("gen 2", "dcd181d8092bb21a3f3e6ae39fa498e3");
    ("gen 3", "c2e759b7050f5ada8a27ee1068805d0d");
    ("gen 4", "fb29a425c365ab3fc20a4341b6b1bb57");
    ("gen 5", "2a68cfaf8c51ee30631c0d1c20600e3b");
    ("gen 6", "bb19b734483568aaae0a9ba54ef9fbeb");
    ("gen 7", "d17f9e53e3347cdae15097481a9c509e");
    ("gen 8", "b7f43f23ff8e307b27b7d3d395a4daa3");
    ("gen 9", "94f32563628504d1fcfd172508f26596");
    ("gen 10", "1e7512279895a42fc67071c3c7eb8bc2");
    ("gen 11", "98aa8b8e27daed5e3bcd78934b3f75b7");
  ]

let test_region_golden () =
  let clean = ref 0 and dirty = ref 0 in
  List.iteri
    (fun seed (name, make) ->
      let text, c, d = region_digest_text (make ()) ~seed in
      clean := !clean + c;
      dirty := !dirty + d;
      let got = Digest.to_hex (Digest.string text) in
      Alcotest.(check string) name (List.assoc name region_digests) got)
    region_golden_programs;
  check_bool "some cones leave main clean" true (!clean > 0);
  check_bool "some cones contain main" true (!dirty > 0)

(* --- provenance is built on demand ----------------------------------- *)

let sample name =
  let path = Filename.concat "../programs" name in
  Frontend.Sema.compile_exn ~file:path
    (In_channel.with_open_bin path In_channel.input_all)

let on_demand_programs () =
  [
    ("dag_style 32", Workload.Families.dag_style ~seed:1009 ~n:32);
    ("fortran_fixed 32", Workload.Families.fortran_fixed ~seed:3 ~n:32);
    ("pointers.mp", sample "pointers.mp");
    ("mustmod_demo.mp", sample "mustmod_demo.mp");
    ("lint_demo.mp", sample "lint_demo.mp");
  ]

(* An edit of a provenance-carrying record, and a relint of it, build no
   derivation forest: the edit attaches a lazy one, the lint rules
   build witness thunks only.  The first read builds it, once. *)
let test_edit_builds_no_forest () =
  List.iter
    (fun (name, prog) ->
      let engine = Engine.of_analysis (A.run ~provenance:true prog) in
      let forests span = List.length (spans_named "provenance" span) in
      let rand = Random.State.make [| 0xf0 |] in
      List.iter
        (fun (edit, _) ->
          let (_ : Engine.outcome), span =
            Obs.Span.collect "edit" (fun () -> Engine.apply engine edit)
          in
          check_int (name ^ ": edit builds no forest") 0 (forests span);
          let (_ : Lint.Diagnostic.t list), span =
            Obs.Span.collect "lint" (fun () -> Engine.lint engine)
          in
          check_int (name ^ ": relint builds no forest") 0 (forests span))
        (Workload.Edits.gen ~rand ~steps:6 prog);
      let read () =
        snd
          (Obs.Span.collect "read" (fun () ->
               ignore (A.provenance_forest (Engine.analysis engine))))
      in
      check_int (name ^ ": first read builds it") 1 (forests (read ()));
      check_int (name ^ ": later reads reuse it") 0 (forests (read ())))
    (on_demand_programs ())

(* A witness rendered late reads what it would have read at once: the
   engine's findings, forced only after five further edits of the same
   engine (each refreshing or resetting its dataflow driver in place),
   equal a fresh lint of the same analysis forced right away.  Eight
   scripts per program, so call-shape and structural edits, which
   renumber what a stale read would index, come up. *)
let test_late_witness_not_stale () =
  List.iter
    (fun (name, prog) ->
      for seed = 0 to 7 do
        let engine = Engine.of_analysis (A.run ~provenance:true prog) in
        let rand = Random.State.make [| seed; 0x57a1e |] in
        match Workload.Edits.gen ~rand ~steps:6 prog with
        | (first, _) :: rest ->
          ignore (Engine.apply engine first : Engine.outcome);
          let late = Engine.lint engine in
          let now = Lint.Engine.run (Engine.analysis engine) in
          List.iter (fun d -> ignore (Lint.Diagnostic.to_json d)) now;
          check_bool (name ^ ": some finding has a witness") true
            (List.exists (fun d -> Lazy.force d.Lint.Diagnostic.witness <> []) now);
          List.iter
            (fun (edit, _) -> ignore (Engine.apply engine edit : Engine.outcome))
            rest;
          check_bool
            (Printf.sprintf "%s, script %d: late witnesses = immediate ones" name seed)
            true
            (List.equal Lint.Diagnostic.equal late now)
        | [] -> Alcotest.failf "%s: empty script" name
      done)
    (on_demand_programs ())

let () =
  run "incremental"
    [
      ( "directed",
        [
          Alcotest.test_case "add-assign mutual_pair" `Quick
            test_add_assign_mutual;
          Alcotest.test_case "edits and relints build no forest" `Quick
            test_edit_builds_no_forest;
          Alcotest.test_case "late witnesses are not stale" `Quick
            test_late_witness_not_stale;
          Alcotest.test_case "remove-assign mutual_pair" `Quick
            test_remove_assign_mutual;
          Alcotest.test_case "add-call diamond" `Quick test_add_call_diamond;
          Alcotest.test_case "remove-call diamond" `Quick
            test_remove_call_diamond;
          Alcotest.test_case "retarget diamond" `Quick test_retarget_diamond;
          Alcotest.test_case "add/remove proc diamond" `Quick
            test_add_remove_proc_diamond;
          Alcotest.test_case "nested body edit" `Quick test_nested_body_edit;
          Alcotest.test_case "nested body edit takes the region path" `Quick
            test_nested_region;
          Helpers.seeded_case "nested script" `Quick test_nested_script;
          Alcotest.test_case "pointer scripts, both tiers" `Quick test_ptr_scripts;
        ] );
      ( "opcount",
        [
          Alcotest.test_case "ref_chain 64 region" `Quick test_opcount_ref_chain;
          Alcotest.test_case "global_chain 1024 summary rebuild" `Quick
            test_summary_rebuild_head;
        ] );
      ( "golden",
        [ Alcotest.test_case "region re-solve digests" `Quick test_region_golden ] );
      ( "adoption",
        [
          Alcotest.test_case "of_analysis re-solves nothing" `Quick
            test_adopt_no_resolve;
          Alcotest.test_case "adopted record stays read-only" `Quick
            test_adopted_read_only;
        ] );
      ( "equivalence",
        [
          qtest ~count:160 "incremental = batch (flat scripts)" arb_flat_prog
            (prop_script (flat_of_seed ~n:24) 8);
          qtest ~count:60 "incremental = batch (nested scripts)" arb_nested_prog
            (prop_script (nested_of_seed ~n:20 ~depth:3) 8);
          qtest ~count:40 "incremental = batch (pointer scripts, steensgaard)"
            arb_ptr_seed
            (prop_script ~ptsto:Ptsto.Steensgaard ptr_of_seed 8);
          qtest ~count:40 "incremental = batch (pointer scripts, andersen)"
            arb_ptr_seed
            (prop_script ~ptsto:Ptsto.Andersen ptr_of_seed 8);
          qtest ~count:100 "render/parse_line round trip" arb_flat_prog
            (prop_render_roundtrip (flat_of_seed ~n:24) 8);
          qtest ~count:60 "of_analysis = create" arb_flat_prog
            (prop_of_analysis_equiv (flat_of_seed ~n:24) 6);
          qtest ~count:40 "of_analysis = create (nested scripts)" arb_nested_prog
            (prop_of_analysis_equiv (nested_of_seed ~n:20 ~depth:3) 6);
          qtest ~count:60 "provenance forests = batch (flat scripts)" arb_flat_prog
            (prop_provenance_equiv (flat_of_seed ~n:24) 6);
          qtest ~count:40 "provenance forests = batch (nested scripts)"
            arb_nested_prog
            (prop_provenance_equiv (nested_of_seed ~n:20 ~depth:3) 6);
          qtest ~count:20 "provenance forests = batch (pointer scripts, steensgaard)"
            arb_ptr_seed
            (prop_provenance_equiv ~ptsto:Ptsto.Steensgaard ptr_of_seed 6);
          qtest ~count:20 "provenance forests = batch (pointer scripts, andersen)"
            arb_ptr_seed
            (prop_provenance_equiv ~ptsto:Ptsto.Andersen ptr_of_seed 6);
        ] );
    ]
