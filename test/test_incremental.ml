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
  for sid = 0 to Ir.Prog.n_sites batch.A.prog - 1 do
    ok
      (Printf.sprintf "MOD(s%d)" sid)
      (Bitvec.equal (A.mod_of_site inc sid) (A.mod_of_site batch sid));
    ok
      (Printf.sprintf "USE(s%d)" sid)
      (Bitvec.equal (A.use_of_site inc sid) (A.use_of_site batch sid))
  done

(* Run a generated script through the engine, checking equivalence (and
   that the engine's program is the one the script built) after every
   single edit. *)
let run_script prog script =
  let engine = Engine.create prog in
  List.iteri
    (fun i (edit, expected) ->
      let before = Engine.prog engine in
      let label = Printf.sprintf "edit %d (%s)" i (Edit.to_string before edit) in
      let (_ : Engine.outcome) = Engine.apply engine edit in
      if Engine.prog engine <> expected then
        Alcotest.failf "%s: engine program diverges from script program" label;
      check_equiv label (Engine.analysis engine) (A.run expected))
    script;
  List.length script

let prop_script of_seed steps seed =
  let prog = of_seed seed in
  let rand = Random.State.make [| seed; 0xed17 |] in
  let script = Workload.Edits.gen ~rand ~steps prog in
  let (_ : int) = run_script prog script in
  true

(* Directed cases: one per edit constructor, on the textbook families,
   with spot checks on the answers as well as full equivalence. *)

let apply_checked engine edit =
  let before = Engine.prog engine in
  let out = Engine.apply engine edit in
  let prog = Engine.prog engine in
  (match Ir.Validate.run prog with
  | Ok () -> ()
  | Error _ ->
    Alcotest.failf "edit %s left an invalid program" (Edit.to_string before edit));
  check_equiv (Edit.to_string before edit) (Engine.analysis engine) (A.run prog);
  out

let test_add_assign_mutual () =
  let prog = Workload.Families.mutual_pair () in
  (* Three procedures total, so any cone trips the default threshold;
     raise it to exercise the region path on the mutual SCC. *)
  let engine = Engine.create ~threshold:1.0 prog in
  let out =
    apply_checked engine
      (Edit.Add_assign
         {
           proc = proc_id prog "a";
           target = var_id prog "g0";
           value = Ir.Expr.Int 7;
         })
  in
  check_bool "body edit stays incremental" true (out.Engine.fallback = None);
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
  let out =
    apply_checked engine
      (Edit.Add_proc
         { name = "fresh"; writes = [ var_id prog "g0" ]; reads = [] })
  in
  check_bool "structural edit falls back" true (out.Engine.fallback <> None);
  let prog' = Engine.prog engine in
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
    apply_checked engine
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
  let n = run_script prog script in
  check_bool "script not empty" true (n > 0)

(* Satellite 3: a shape-preserving edit on [ref_chain 64] must re-solve
   O(SCC-cone) procedures, not O(N).  The cone of p1 is {main, p1} on
   the MOD side and nothing on the USE side. *)
let test_opcount_ref_chain () =
  let prog = Workload.Families.ref_chain 64 in
  let engine = Engine.create prog in
  let resolved =
    Option.get (Obs.Metric.find "incremental.procs_resolved")
  in
  let fallbacks = Option.get (Obs.Metric.find "incremental.full_fallbacks") in
  let snap = Obs.Metric.snapshot () in
  let out =
    apply_checked engine
      (Edit.Add_assign
         {
           proc = proc_id prog "p1";
           target = var_id prog "g0";
           value = Ir.Expr.Int 1;
         })
  in
  check_int "no fallback" 0 (Obs.Metric.value_since ~since:snap fallbacks);
  let delta = Obs.Metric.value_since ~since:snap resolved in
  check_int "outcome agrees with registry" delta out.Engine.procs_resolved;
  if delta > 4 then
    Alcotest.failf "edit on p1 re-solved %d procedures (O(N)=64, want O(SCC))"
      delta;
  (* A mid-chain edit's ancestor cone is the upper half of the chain —
     bigger, but still region-local and under the fallback threshold. *)
  let snap = Obs.Metric.snapshot () in
  let (_ : Engine.outcome) =
    apply_checked engine
      (Edit.Add_assign
         {
           proc = proc_id prog "p31";
           target = var_id prog "g0";
           value = Ir.Expr.Int 1;
         })
  in
  check_int "no fallback mid-chain" 0
    (Obs.Metric.value_since ~since:snap fallbacks);
  let delta = Obs.Metric.value_since ~since:snap resolved in
  if delta >= 64 then
    Alcotest.failf "edit on p31 re-solved %d procedures (>= N)" delta;
  (* Deep in the chain the cone is nearly everything: the threshold
     policy must notice and take the full run instead. *)
  let snap = Obs.Metric.snapshot () in
  let out =
    apply_checked engine
      (Edit.Add_assign
         {
           proc = proc_id prog "p63";
           target = var_id prog "g0";
           value = Ir.Expr.Int 1;
         })
  in
  check_bool "oversized cone falls back" true (out.Engine.fallback <> None);
  check_int "fallback counted" 1
    (Obs.Metric.value_since ~since:snap fallbacks)

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

(* Adoption costs no solver work: the engine reads RMOD, RUSE and
   MUSTMOD (and the condensations they were solved on) straight from
   the adopted record. *)
let test_adopt_no_resolve () =
  List.iter
    (fun prog ->
      let a = A.run prog in
      let steps = Option.get (Obs.Metric.find "rmod.steps") in
      let rounds = Option.get (Obs.Metric.find "mustmod.rounds") in
      let snap = Obs.Metric.snapshot () in
      let (_ : Engine.t) = Engine.of_analysis a in
      check_int "rmod.steps added by of_analysis" 0
        (Obs.Metric.value_since ~since:snap steps);
      check_int "mustmod.rounds added by of_analysis" 0
        (Obs.Metric.value_since ~since:snap rounds))
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
      let engine = Engine.of_analysis ~threshold:1.0 a in
      let rand = Random.State.make [| seed; 0x5e55 |] in
      let script = Workload.Edits.gen ~rand ~steps:12 prog in
      let resolved = ref 0 in
      List.iter
        (fun (edit, _) ->
          let out = Engine.apply engine edit in
          if out.Engine.fallback = None then incr resolved)
        script;
      check_bool "some edits took the region path" true (!resolved > 0);
      Alcotest.(check (list string)) "adopted record unchanged" before (image ()))
    [
      (Workload.Families.fortran_style ~seed:3 ~n:32, 3);
      (Workload.Families.pascal_style ~seed:3 ~n:32 ~depth:3, 3);
    ]

let () =
  run "incremental"
    [
      ( "directed",
        [
          Alcotest.test_case "add-assign mutual_pair" `Quick
            test_add_assign_mutual;
          Alcotest.test_case "remove-assign mutual_pair" `Quick
            test_remove_assign_mutual;
          Alcotest.test_case "add-call diamond" `Quick test_add_call_diamond;
          Alcotest.test_case "remove-call diamond" `Quick
            test_remove_call_diamond;
          Alcotest.test_case "retarget diamond" `Quick test_retarget_diamond;
          Alcotest.test_case "add/remove proc diamond" `Quick
            test_add_remove_proc_diamond;
          Alcotest.test_case "nested body edit" `Quick test_nested_body_edit;
          Helpers.seeded_case "nested script" `Quick test_nested_script;
        ] );
      ( "opcount",
        [ Alcotest.test_case "ref_chain 64 region" `Quick test_opcount_ref_chain ] );
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
          qtest ~count:100 "render/parse_line round trip" arb_flat_prog
            (prop_render_roundtrip (flat_of_seed ~n:24) 8);
          qtest ~count:60 "of_analysis = create" arb_flat_prog
            (prop_of_analysis_equiv (flat_of_seed ~n:24) 6);
          qtest ~count:40 "of_analysis = create (nested scripts)" arb_nested_prog
            (prop_of_analysis_equiv (nested_of_seed ~n:20 ~depth:3) 6);
        ] );
    ]
