(* Points-to property tests: Andersen refines Steensgaard on every
   generated pointer program, both tiers are sound against the
   interpreter's dynamic dereference/alias oracle, and pointer-free
   programs analyze bit-identically with the pass on or off. *)

module P = Ir.Prog
module A = Core.Analyze

let ptr_prog_of_seed = Helpers.ptr_prog_of_seed
let arb_ptr_prog = Helpers.arb_ptr_prog

let subset l1 l2 = List.for_all (fun x -> List.mem x l2) l1

let total_pairs t prog =
  let n = ref 0 in
  for pid = 0 to P.n_procs prog - 1 do
    n := !n + List.length (Core.Alias.pairs t.A.alias pid)
  done;
  !n

(* Andersen's solution is pointwise contained in Steensgaard's: raw
   points-to, every dereference projection, and the §5 pairs the
   projections induce. *)
let prop_andersen_refines seed =
  let prog = ptr_prog_of_seed seed in
  let s = Ptsto.analyze ~tier:Ptsto.Steensgaard prog in
  let a = Ptsto.analyze ~tier:Ptsto.Andersen prog in
  let ok = ref (Ptsto.size a <= Ptsto.size s) in
  for v = 0 to P.n_vars prog - 1 do
    for d = 1 to 2 do
      if
        (not (subset (Ptsto.deref_targets a v d) (Ptsto.deref_targets s v d)))
        || not (subset (Ptsto.deref_heap a v d) (Ptsto.deref_heap s v d))
      then ok := false
    done
  done;
  let ts = A.run ~ptsto:Ptsto.Steensgaard prog in
  let ta = A.run ~ptsto:Ptsto.Andersen prog in
  for pid = 0 to P.n_procs prog - 1 do
    if
      not
        (subset
           (Core.Alias.pairs ta.A.alias pid)
           (Core.Alias.pairs ts.A.alias pid))
    then ok := false
  done;
  !ok

(* The interpreter as oracle: every cell a dereference dynamically
   reached is statically predicted, every dynamic entry alias is a
   computed §5 pair. *)
let oracle_sound tier seed =
  let prog = ptr_prog_of_seed seed in
  let t = A.run ~ptsto:tier prog in
  match t.A.ptsto with
  | None -> false (* the generator always emits pointers *)
  | Some pt ->
    let o = Interp.run prog in
    List.for_all
      (fun (p, d, owner) ->
        if owner >= 0 then List.mem owner (Ptsto.deref_targets pt p d)
        else Ptsto.deref_heap pt p d <> [])
      o.Interp.ptr_obs
    && List.for_all
         (fun (pid, x, y) -> Core.Alias.may_alias t.A.alias ~proc:pid x y)
         o.Interp.alias_obs

(* The site MOD/USE oracle on the same programs: what each executed
   call observably wrote or read — locals reached through a pointer
   from another activation included — is in its MOD/USE. *)
let site_sound tier seed =
  let prog = ptr_prog_of_seed seed in
  match Helpers.unsound_sites (A.run ~ptsto:tier prog) prog with
  | [] -> true
  | (sid, what) :: _ ->
    QCheck.Test.fail_reportf "%s: site %d observed %s not predicted"
      (Ptsto.tier_name tier) sid what

(* Pointer-free programs never run the solver and are bit-identical
   under either tier flag. *)
let prop_pointer_free_identical seed =
  let prog = Helpers.flat_of_seed seed in
  (not (Ptsto.has_pointers prog))
  &&
  let a = A.run prog in
  let b = A.run ~ptsto:Ptsto.Andersen prog in
  a.A.ptsto = None && b.A.ptsto = None
  && Helpers.gmod_arrays_equal a.A.gmod b.A.gmod
  && Helpers.gmod_arrays_equal a.A.guse b.A.guse
  &&
  let same = ref true in
  for pid = 0 to P.n_procs prog - 1 do
    if Core.Alias.pairs a.A.alias pid <> Core.Alias.pairs b.A.alias pid then
      same := false
  done;
  !same

(* [deref_set] interns [deref_targets]: the same variables, one record
   per distinct answer (the empty one is [Ir.Info.no_cells]), and ids
   dense from 0. *)
let prop_interned_sets seed =
  let prog = ptr_prog_of_seed seed in
  List.for_all
    (fun tier ->
      let pt = Ptsto.analyze ~tier prog in
      let seen = Hashtbl.create 16 in
      Hashtbl.replace seen [] Ir.Info.no_cells;
      let ok = ref true in
      for v = 0 to P.n_vars prog - 1 do
        for d = 0 to Ir.Types.ptr_depth (P.var prog v).P.vty + 1 do
          let targets = Ptsto.deref_targets pt v d in
          let c = Ptsto.deref_set pt v d in
          if Array.to_list c.Ir.Info.vars <> targets then ok := false;
          match Hashtbl.find_opt seen targets with
          | Some c' -> if c' != c then ok := false
          | None -> Hashtbl.replace seen targets c
        done
      done;
      let ids = Hashtbl.fold (fun _ c acc -> c.Ir.Info.id :: acc) seen [] in
      !ok && List.sort compare ids = List.init (Hashtbl.length seen) Fun.id)
    [ Ptsto.Steensgaard; Ptsto.Andersen ]

(* The acceptance separation: on the funnel family Andersen keeps the
   per-pointer targets apart that Steensgaard's unification merges, so
   it proves strictly fewer §5 pairs. *)
let test_funnel_separation () =
  let prog = Workload.Families.ptr_funnel 6 in
  let ns = total_pairs (A.run ~ptsto:Ptsto.Steensgaard prog) prog in
  let na = total_pairs (A.run ~ptsto:Ptsto.Andersen prog) prog in
  Alcotest.(check bool)
    (Printf.sprintf "andersen (%d) < steensgaard (%d)" na ns)
    true (na < ns)

let test_families_sound () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun tier ->
          let t = A.run ~ptsto:tier prog in
          let pt = Option.get t.A.ptsto in
          let o = Interp.run prog in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s ptr_obs" name (Ptsto.tier_name tier))
            true
            (List.for_all
               (fun (p, d, owner) ->
                 if owner >= 0 then List.mem owner (Ptsto.deref_targets pt p d)
                 else Ptsto.deref_heap pt p d <> [])
               o.Interp.ptr_obs);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s alias_obs" name (Ptsto.tier_name tier))
            true
            (List.for_all
               (fun (pid, x, y) ->
                 Core.Alias.may_alias t.A.alias ~proc:pid x y)
               o.Interp.alias_obs))
        [ Ptsto.Steensgaard; Ptsto.Andersen ])
    [
      ("ptr_chain", Workload.Families.ptr_chain 8);
      ("ptr_heap", Workload.Families.ptr_heap 8);
      ("ptr_funnel", Workload.Families.ptr_funnel 8);
    ]

let () =
  Helpers.run "ptsto"
    [
      ( "properties",
        [
          Helpers.qtest "andersen ⊆ steensgaard" arb_ptr_prog
            prop_andersen_refines;
          Helpers.qtest "steensgaard sound vs interpreter" arb_ptr_prog
            (oracle_sound Ptsto.Steensgaard);
          Helpers.qtest "andersen sound vs interpreter" arb_ptr_prog
            (oracle_sound Ptsto.Andersen);
          Helpers.qtest "steensgaard site MOD/USE sound" arb_ptr_prog
            (site_sound Ptsto.Steensgaard);
          Helpers.qtest "andersen site MOD/USE sound" arb_ptr_prog
            (site_sound Ptsto.Andersen);
          Helpers.qtest "pointer-free programs identical" Helpers.arb_flat_prog
            prop_pointer_free_identical;
          Helpers.qtest "deref sets interned per distinct answer" arb_ptr_prog
            prop_interned_sets;
        ] );
      ( "families",
        [
          Alcotest.test_case "funnel: andersen strictly refines" `Quick
            test_funnel_separation;
          Alcotest.test_case "pointer families sound, both tiers" `Quick
            test_families_sound;
        ] );
    ]
