(* Differential soundness testing: execute random programs under the
   tracing interpreter and check that everything observed at run time
   is predicted by the static analysis —

     observed_mod(s) ⊆ MOD(s)   and   observed_use(s) ⊆ USE(s)

   for every call site of every program, including truncated runs
   (fuel exhaustion, arithmetic faults): events already recorded
   really happened.  This validates the entire pipeline against an
   implementation that shares nothing with it but the IR. *)

let check_program ?fuel prog = Helpers.unsound_sites ?fuel (Core.Analyze.run prog) prog

let prop_sound prog =
  match check_program prog with
  | [] -> true
  | (sid, what) :: _ ->
    QCheck.Test.fail_reportf "site %d: observed %s not predicted" sid what

let test_families () =
  List.iter
    (fun (name, prog) ->
      match check_program prog with
      | [] -> ()
      | (sid, what) :: _ ->
        Alcotest.failf "%s: site %d observed %s exceeds prediction" name sid what)
    [
      ("ref_chain", Workload.Families.ref_chain 10);
      ("ref_cycle", Workload.Families.ref_cycle 6);
      ("global_chain", Workload.Families.global_chain 8);
      ("mutual_pair", Workload.Families.mutual_pair ());
      ("diamond", Workload.Families.diamond ());
      ("nested_textbook", Workload.Families.nested_textbook ());
    ]

let test_kernels () =
  for seed = 0 to 15 do
    let prog = Workload.Arrays.generate ~seed ~n_kernels:6 in
    match check_program prog with
    | [] -> ()
    | (sid, what) :: _ ->
      Alcotest.failf "kernels seed %d: site %d observed %s exceeds prediction" seed
        sid what
  done

(* A pointer that carries a local out of its own activation: the
   local is not in LOCAL(owner), so every site on the way reports it
   ({!Ir.Info}).  Both tiers. *)
let test_escapes () =
  List.iter
    (fun (name, src) ->
      let prog = Helpers.compile src in
      List.iter
        (fun tier ->
          match Helpers.unsound_sites (Core.Analyze.run ~ptsto:tier prog) prog with
          | [] -> ()
          | (sid, what) :: _ ->
            Alcotest.failf "%s (%s): site %d observed %s exceeds prediction" name
              (Ptsto.tier_name tier) sid what)
        [ Ptsto.Steensgaard; Ptsto.Andersen ])
    Helpers.escape_srcs

let prop_sound_flat seed = prop_sound (Helpers.flat_of_seed seed)
let prop_sound_nested seed = prop_sound (Helpers.nested_of_seed seed)

let prop_sound_nested_deep seed =
  prop_sound (Helpers.nested_of_seed ~n:25 ~depth:6 seed)

(* Post-edit programs, analysed *incrementally*: the engine's cached
   answers — not a fresh run — must still cover everything the
   interpreter observes, after every step of a random edit script. *)
let prop_sound_edited seed =
  let prog = Helpers.flat_of_seed ~n:20 seed in
  let rand = Random.State.make [| seed; 0x50ed |] in
  let script = Workload.Edits.gen ~rand ~steps:6 prog in
  let engine = Incremental.Engine.create prog in
  List.for_all
    (fun (edit, _) ->
      let before = Incremental.Engine.prog engine in
      let (_ : Incremental.Engine.outcome) =
        Incremental.Engine.apply engine edit
      in
      match
        Helpers.unsound_sites
          (Incremental.Engine.analysis engine)
          (Incremental.Engine.prog engine)
      with
      | [] -> true
      | (sid, what) :: _ ->
        QCheck.Test.fail_reportf "after %s: site %d observed %s not predicted"
          (Incremental.Edit.to_string before edit)
          sid what)
    script

(* Sections: the flattened sectioned MOD, closed under alias pairs the
   way §5 closes DMOD (the sectioned projection itself is alias-free,
   like the paper's DMOD), must cover the observations. *)
let prop_sections_sound seed =
  let prog = Workload.Arrays.generate ~seed ~n_kernels:5 in
  let t = Sections.Analyze_sections.run prog in
  let alias = Core.Alias.compute t.Sections.Analyze_sections.info in
  let o = Interp.run ~fuel:10_000 ~max_depth:256 prog in
  let ok = ref true in
  Ir.Prog.iter_sites prog (fun s ->
      let sid = s.Ir.Prog.sid in
      if o.Interp.calls_executed.(sid) > 0 then begin
        let flat =
          Sections.Secmap.to_bits (Sections.Analyze_sections.mod_of_site t sid)
        in
        let static = Core.Alias.close alias ~proc:s.Ir.Prog.caller flat in
        if not (Bitvec.subset (Interp.observed_mod o sid) static) then ok := false
      end);
  !ok

(* Precision accounting (not an assertion, a sanity bound): observed
   sets are usually much smaller than MOD — but never empty when the
   static set is forced by a direct write. *)
let test_exact_on_straight_line () =
  let prog =
    Helpers.compile
      {|program p;
var g, h : int;
procedure f(var x : int);
begin
  x := h;
end;
begin
  call f(g);
end.|}
  in
  let t = Core.Analyze.run prog in
  let o = Interp.run prog in
  (* On straight-line code the analysis is exact. *)
  Alcotest.(check bool) "MOD exact" true
    (Bitvec.equal (Interp.observed_mod o 0) (Core.Analyze.mod_of_site t 0));
  Alcotest.(check bool) "USE exact" true
    (Bitvec.equal (Interp.observed_use o 0) (Core.Analyze.use_of_site t 0))

let () =
  Helpers.run "soundness"
    [
      ( "fixed",
        [
          Alcotest.test_case "families" `Quick test_families;
          Alcotest.test_case "array kernels" `Quick test_kernels;
          Alcotest.test_case "locals escaping through pointers" `Quick test_escapes;
          Alcotest.test_case "exact on straight-line code" `Quick
            test_exact_on_straight_line;
        ] );
      ( "random",
        [
          Helpers.qtest ~count:60 "flat programs sound" Helpers.arb_flat_prog
            prop_sound_flat;
          Helpers.qtest ~count:60 "nested programs sound" Helpers.arb_nested_prog
            prop_sound_nested;
          Helpers.qtest ~count:40 "deeply nested programs sound"
            Helpers.arb_nested_prog prop_sound_nested_deep;
          Helpers.qtest ~count:40 "sectioned MOD sound" Helpers.arb_flat_prog
            prop_sections_sound;
          Helpers.qtest ~count:40 "post-edit programs sound (incremental)"
            Helpers.arb_flat_prog prop_sound_edited;
        ] );
    ]
