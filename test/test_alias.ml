(* Alias-pair analysis tests (§5's assumed input): introduction rules,
   propagation down call chains, and the closure operation. *)

let compile = Helpers.compile

let pairs_named prog t pid =
  List.map
    (fun (x, y) ->
      ((Ir.Prog.var prog x).Ir.Prog.vname, (Ir.Prog.var prog y).Ir.Prog.vname))
    (Core.Alias.pairs t pid)

let test_same_actual_twice () =
  let prog =
    compile
      {|program m;
var g : int;
procedure f(var x : int; var y : int);
begin
  x := 1;
end;
begin
  call f(g, g);
end.|}
  in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  let f = Helpers.proc_id prog "f" in
  Alcotest.(check bool) "x~y" true
    (Core.Alias.may_alias t ~proc:f (Helpers.var_id prog "f.x")
       (Helpers.var_id prog "f.y"));
  (* g visible in f, so both formals alias g as well. *)
  Alcotest.(check int) "three pairs" 3 (List.length (Core.Alias.pairs t f))

let test_global_passed_by_ref () =
  let prog =
    compile
      {|program m;
var g, h : int;
procedure f(var x : int);
begin
  x := 1;
end;
begin
  call f(g);
end.|}
  in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  let f = Helpers.proc_id prog "f" in
  Alcotest.(check (list (pair string string))) "only <g, x>" [ ("g", "x") ]
    (pairs_named prog t f)

let test_local_passed_no_alias () =
  (* A caller's local passed by ref is invisible in the callee: no
     introduced pair. *)
  let prog =
    compile
      {|program m;
procedure f(var x : int);
begin
  x := 1;
end;
procedure caller();
var l : int;
begin
  call f(l);
end;
begin
  call caller();
end.|}
  in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  Alcotest.(check int) "no pairs" 0 (Core.Alias.total_pairs t)

let test_propagation_chain () =
  (* <x, y> in f propagates to <a, b> in g when both are passed on. *)
  let prog =
    compile
      {|program m;
var g0 : int;
procedure inner(var a : int; var b : int);
begin
  a := 1;
end;
procedure f(var x : int; var y : int);
begin
  call inner(x, y);
end;
begin
  call f(g0, g0);
end.|}
  in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  let inner = Helpers.proc_id prog "inner" in
  Alcotest.(check bool) "a~b propagated" true
    (Core.Alias.may_alias t ~proc:inner
       (Helpers.var_id prog "inner.a")
       (Helpers.var_id prog "inner.b"))

let test_propagation_formal_global () =
  (* <x, g> in f propagates as <a, g> when x is passed and g is
     visible. *)
  let prog =
    compile
      {|program m;
var g : int;
procedure inner(var a : int);
begin
  a := 1;
end;
procedure f(var x : int);
begin
  call inner(x);
end;
begin
  call f(g);
end.|}
  in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  let inner = Helpers.proc_id prog "inner" in
  Alcotest.(check bool) "a~g" true
    (Core.Alias.may_alias t ~proc:inner
       (Helpers.var_id prog "inner.a")
       (Helpers.var_id prog "g"))

let test_recursive_fixpoint () =
  (* Aliases through a recursive cycle terminate and stay correct. *)
  let prog =
    compile
      {|program m;
var g : int;
procedure r(var x : int; var y : int);
begin
  call r(y, x);
  x := 1;
end;
begin
  call r(g, g);
end.|}
  in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  let r = Helpers.proc_id prog "r" in
  Alcotest.(check bool) "x~y" true
    (Core.Alias.may_alias t ~proc:r (Helpers.var_id prog "r.x")
       (Helpers.var_id prog "r.y"))

let test_nesting_inheritance () =
  (* Regression (found by differential testing): a pair holding on
     entry to p must hold inside procedures nested in p — here nested's
     call passes a2 (aliased to g via main's call) and the alias must
     be visible at that site. *)
  let prog =
    compile
      {|program m;
var g : int;
procedure sink(var s : int);
begin
  s := 1;
end;
procedure p(var a2 : int);
  procedure nested();
  begin
    call sink(a2);
  end;
begin
  call nested();
end;
begin
  call p(g);
end.|}
  in
  let info = Ir.Info.make prog in
  let t = Core.Alias.compute info in
  let nested = Helpers.proc_id prog "nested" in
  Alcotest.(check bool) "nested inherits <a2, g>" true
    (Core.Alias.may_alias t ~proc:nested (Helpers.var_id prog "p.a2")
       (Helpers.var_id prog "g"));
  (* And the site-level MOD inside nested therefore includes g. *)
  let full = Core.Analyze.run prog in
  let sid = (List.hd (Ir.Prog.sites_of prog nested)).Ir.Prog.sid in
  Helpers.check_var_set prog "MOD(sink(a2)) closes over g" [ "g"; "p.a2" ]
    (Core.Analyze.mod_of_site full sid)

let test_late_taint () =
  let prog = compile Helpers.late_taint_src in
  let t = Core.Analyze.run prog in
  let b = Helpers.proc_id prog "b" in
  Alcotest.(check bool) "<u, v> tainted in b" true
    (Core.Alias.pointer_tainted t.Core.Analyze.alias ~proc:b
       (Helpers.var_id prog "b.u", Helpers.var_id prog "b.v"))

let test_close () =
  let prog =
    compile
      {|program m;
var g : int;
procedure f(var x : int);
begin
  x := 1;
end;
begin
  call f(g);
end.|}
  in
  let info = Ir.Info.make prog in
  let t = Core.Alias.compute info in
  let f = Helpers.proc_id prog "f" in
  let set = Bitvec.create (Ir.Prog.n_vars prog) in
  Bitvec.set set (Helpers.var_id prog "f.x");
  let closed = Core.Alias.close t ~proc:f set in
  Helpers.check_var_set prog "closure adds g" [ "g"; "f.x" ] closed

let prop_pairs_are_visible_pairs seed =
  (* Every pair of ALIAS(p) relates variables visible in p. *)
  let prog = Helpers.nested_of_seed seed in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  let ok = ref true in
  for pid = 0 to Ir.Prog.n_procs prog - 1 do
    List.iter
      (fun (x, y) ->
        if
          not
            (Ir.Prog.visible prog ~proc:pid ~var:x
            && Ir.Prog.visible prog ~proc:pid ~var:y)
        then ok := false)
      (Core.Alias.pairs t pid)
  done;
  !ok

let prop_close_superset seed =
  let prog = Helpers.flat_of_seed seed in
  let info = Ir.Info.make prog in
  let t = Core.Alias.compute info in
  let set = Ir.Info.global info in
  let ok = ref true in
  for pid = 0 to Ir.Prog.n_procs prog - 1 do
    if not (Bitvec.subset set (Core.Alias.close t ~proc:pid set)) then ok := false
  done;
  !ok

(* --- lookups against a pair scan ---

   [close], [aliases_of] and [may_alias] answer from per-procedure
   partner rows, [iter_pairs] walks the frozen keys; the reference
   answers scan every pair of [pairs].
   Query sets are random, biased towards pair members, sometimes
   dense. *)

let scan_close pairs set =
  let r = Bitvec.copy set in
  List.iter
    (fun (x, y) ->
      if Bitvec.get set x then Bitvec.set r y;
      if Bitvec.get set y then Bitvec.set r x)
    pairs;
  r

let scan_aliases pairs v =
  List.filter_map
    (fun (x, y) -> if x = v then Some y else if y = v then Some x else None)
    pairs
  |> List.sort_uniq Int.compare

let prop_lookups_match_scan make seed =
  let prog = make seed in
  let t = (Core.Analyze.run prog).Core.Analyze.alias in
  let st = Random.State.make [| seed; 0x5ca9 |] in
  let nv = Ir.Prog.n_vars prog in
  let ok = ref true in
  for pid = 0 to Ir.Prog.n_procs prog - 1 do
    let pairs = Core.Alias.pairs t pid in
    let members =
      Array.of_list
        (List.sort_uniq Int.compare (List.concat_map (fun (x, y) -> [ x; y ]) pairs))
    in
    let pick () =
      if Array.length members > 0 && Random.State.bool st then
        members.(Random.State.int st (Array.length members))
      else Random.State.int st nv
    in
    let set = Bitvec.create nv in
    if Random.State.int st 4 = 0 then
      for v = 0 to nv - 1 do
        if Random.State.bool st then Bitvec.set set v
      done
    else
      for _ = 1 to Random.State.int st 8 do
        Bitvec.set set (pick ())
      done;
    if not (Bitvec.equal (Core.Alias.close t ~proc:pid set) (scan_close pairs set)) then
      ok := false;
    let walked = ref [] in
    Core.Alias.iter_pairs t pid (fun x y tainted -> walked := (x, y, tainted) :: !walked);
    if
      List.rev !walked
      <> List.map (fun (x, y) -> (x, y, Core.Alias.pointer_tainted t ~proc:pid (x, y))) pairs
    then ok := false;
    for _ = 1 to 4 do
      let x = pick () and y = pick () in
      if Core.Alias.aliases_of t ~proc:pid ~var:x <> scan_aliases pairs x then ok := false;
      if
        Core.Alias.may_alias t ~proc:pid x y
        <> (x <> y && List.mem (Core.Alias.norm x y) pairs)
      then ok := false
    done
  done;
  !ok

let ptr_family_of_seed seed =
  let n = 2 + (seed mod 40) in
  match seed mod 3 with
  | 0 -> Workload.Families.ptr_chain n
  | 1 -> Workload.Families.ptr_funnel n
  | _ -> Workload.Families.ptr_heap n

let arb_ptr_family =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "pointer family seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

(* --- identity golden ---

   Digests of everything §5 and the points-to layer hand downstream:
   ALIAS(p) with each pair's pointer taint, the provenance reason
   recorded for every pair, and — on pointer programs, under both
   tiers — the points-to listing plus the projection [deref p d] (and
   its heap part) for every pointer variable and depth.  They were
   recorded with the round-robin alias sweep and the iterated storage
   closure; any change to what either computes changes a digest. *)

let alias_reason_str = function
  | Core.Provenance.Apositions { site; pos_i; pos_j } ->
    Printf.sprintf "positions s%d %d %d" site pos_i pos_j
  | Avisible { site; pos } -> Printf.sprintf "visible s%d %d" site pos
  | Apropagated { site; from_pair = x, y } ->
    Printf.sprintf "propagated s%d <%d,%d>" site x y
  | Ainherited { parent } -> Printf.sprintf "inherited p%d" parent
  | Apointsto { site; pos } -> Printf.sprintf "pointsto s%d %d" site pos

let identity_text prog =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let ints l = String.concat "," (List.map string_of_int l) in
  List.iter
    (fun tier ->
      let t = Core.Analyze.run ~provenance:true ~ptsto:tier prog in
      let alias = t.Core.Analyze.alias in
      add "tier %s\n" (Ptsto.tier_name tier);
      for pid = 0 to Ir.Prog.n_procs prog - 1 do
        add "p%d:" pid;
        List.iter
          (fun (x, y) ->
            add " <%d,%d>%s" x y
              (if Core.Alias.pointer_tainted alias ~proc:pid (x, y) then "t" else ""))
          (Core.Alias.pairs alias pid);
        add "\n"
      done;
      (match Core.Analyze.provenance_forest t with
      | None -> ()
      | Some pv ->
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) pv.Core.Provenance.alias []
        |> List.sort compare
        |> List.iter (fun ((pid, x, y), r) ->
               add "why p%d <%d,%d>: %s\n" pid x y (alias_reason_str r)));
      if Ptsto.has_pointers prog then begin
        let pt = Ptsto.analyze ~tier prog in
        add "%s\n" (Fmt.str "%a" Ptsto.pp pt);
        for v = 0 to Ir.Prog.n_vars prog - 1 do
          for d = 1 to Ir.Types.ptr_depth (Ir.Prog.var prog v).Ir.Prog.vty do
            add "deref %d %d: [%s] heap [%s]\n" v d
              (ints (Ptsto.deref_targets pt v d))
              (ints (Ptsto.deref_heap pt v d))
          done
        done
      end)
    [ Ptsto.Steensgaard; Ptsto.Andersen ];
  Buffer.contents b

let identity_digests =
  [
    ("ptr_chain 2", "9ece5d123b90c4f543ef0b746b58e220");
    ("ptr_funnel 2", "3b54ff83e55306d8e9389da2538358f7");
    ("ptr_heap 2", "cf441c95fca5c2507858ce8185fd7f61");
    ("ptr_chain 16", "493e5ba04998e74e8aed6a5d7a736217");
    ("ptr_funnel 16", "51dbbb6b47518b6b917be2fb902028ad");
    ("ptr_heap 16", "a937d82c0ec082dee92054241278870e");
    ("ptr_chain 64", "9a9de7f4522226294651da27ff27d73a");
    ("ptr_funnel 64", "3ba38d9d1b0866f624019e4b79919ab1");
    ("ptr_heap 64", "7c9c72dbf095c209e0002d74a20f74ac");
    ("fortran_style s1", "964fbf8961f2a12ca1d4f4c02e26b289");
    ("fortran_fixed s1", "e81aad0b21f02fbf21b685cf7ed4949e");
    ("dag_style s1", "a91cb0dbec46ea76fdda3b32f69bafea");
    ("pascal_style s1", "9d7ced293a842febb841c47e4eae4653");
    ("fortran_style s2", "305ebcfe0ae09b37b9a21c7f3db14b3b");
    ("fortran_fixed s2", "3f646a16d314ea5670b66d6664e65c52");
    ("dag_style s2", "c7be9d9cc24a1f7704f43ff9e0e95662");
    ("pascal_style s2", "5be65209baecd3d0071e9e6bb2be7c4f");
    ("bank.mp", "dfe29a80b9281bf8d43a2a50289bee68");
    ("dataflow_demo.mp", "0d97abdd4a6035d123918f49f42b2fbc");
    ("lint_demo.mp", "4d21fce5374faf0d84e095a6b312dfe3");
    ("mustmod_demo.mp", "b775b2edcf296a0f1f8b71caa1f0e69b");
    ("pipeline.mp", "b81c499380de71b07b467d3ff922d958");
    ("pointers.mp", "cdd46ecb33c778b362c2cbe5dcbfe685");
    ("ptr_lint.mp", "deae1b121ff00a421aa5e0e45d9a35f8");
    ("report.mp", "52bb68910a1d3ad2acf933ab2c67ede5");
    ("stencil.mp", "2b251407a4b0ae7d4fa4ce6151db38f5");
    ("late taint", "631968e0f86fb525a55af8e8b230222d");
    ("gen 0", "e1195247560635164ee60dd36f475c84");
    ("gen 1", "29fa67c2b9234e9002fd70f06d5c9223");
    ("gen 2", "c6129db6e2e010ef1192b3359ccf19d3");
    ("gen 3", "b3bcdf7b76beb29d5e74fae8e361fc29");
    ("gen 4", "a5d49e71fbe81d809f442183d9d3f3c8");
    ("gen 5", "430898a1359d18d7f3ac4ed71657a07d");
    ("gen 6", "fe4b4a887b34afb1976a03a6b935d3a4");
    ("gen 7", "cf696bf92728447d718a406c872142cc");
    ("gen 8", "0a389fcf7e1c9e1fc3e15c3dc781715d");
    ("gen 9", "b6f81416a5be8c506bf0881c240f58d7");
    ("gen 10", "498da79c5d36c0ec586648b596c58c2b");
    ("gen 11", "ab31b1103ccab8cc1ec6bd3eb6ce0cd6");
    ("gen 12", "ebd1afc8c3694712ee03a4c408af6b7d");
    ("gen 13", "e0789e51e62d337bf3057dc6b65947b0");
    ("gen 14", "49717e6bf83a5f8046cf243e49151a4c");
    ("gen 15", "0831fcbfc47d13b2f23125229d10c601");
    ("gen 16", "f99ded31a0e25fcb1cdeb9a8d63b6cd8");
    ("gen 17", "82f9ffa7a16246f5aedb383f0c22be1f");
    ("gen 18", "f4dca4f2cff1faa20911718961d3990b");
    ("gen 19", "3592af468a40ba91aa4b8a7c21c83859");
    ("gen 20", "38fb727718feff119e21216e1a014d02");
    ("gen 21", "427ae4d6a6ddda3819442ac1f068c276");
    ("gen 22", "f52feaf07e3bd08950298a9b61e39fb0");
    ("gen 23", "98be5e38bea948eea3ea3313161ca75a");
    ("gen 24", "f326309776b1b0ef7986f2f585e36678");
    ("gen 25", "b2b91956f153a4f9f8960ee21f2eb9b9");
    ("gen 26", "32057816748b16f3733cfe5eaf0c8f56");
    ("gen 27", "a805487c2dc488d39f13ba2280dfbd63");
    ("gen 28", "e73d84d54e2e218ab5923672493db5cc");
    ("gen 29", "947c7670f8c27affd5981ea5b8136ca4");
    ("gen 30", "2a06c4e2d3a737b42beb92015af33b9d");
    ("gen 31", "d74dd3a44e1ae11500797d0b61396137");
    ("gen 32", "ef7ddbe3d299ca3fcc12930c2bfe8a80");
    ("gen 33", "347ba59eb33860f9dba76d6fa5ea5c6c");
    ("gen 34", "1bb4a2d206e209cb246f03cd7bf82db8");
    ("gen 35", "1eb27a6df9cd9613f7c7247f35409111");
    ("gen 36", "517587d191058c3577fedcafa2962cf7");
    ("gen 37", "0cb4829f505c987692e0e55e0de7186c");
    ("gen 38", "0a0eed11c547e58977b3e30af232c110");
    ("gen 39", "421c0f56bc83c74003295465053e58f6");
    ("gen 40", "e710669ab8fbee8fc8aeab3a2785eb94");
    ("gen 41", "0841632fd4a4e833512be53c5f25b125");
    ("gen 42", "6eb114a6476ffbdbf93c461d402357e2");
    ("gen 43", "b9d34fd161d3de684cda8d24e77dfe59");
    ("gen 44", "cb490f5f3c666a1d36c50ab9a3c7494b");
    ("gen 45", "9fed7ef35cdc456a1a420c03b77917f9");
    ("gen 46", "39d370fb1bb2d31b0b49f6795de70ecb");
    ("gen 47", "124b36cee22390f50dca18493994e3bc");
    ("gen 48", "323739f2b852bb9ee3cff9a2730a0bb2");
    ("gen 49", "f02e216cd262b1206da51b92c6a7e927");
    ("storage overlap", "b53320e19109781bd49ea83c30126b12");
    ("same dereference twice", "4e8bfc573a950d9859d1d2924faf761e");
    ("dereference and plain", "fbab30ffd9f8a6c046baaacd27eeb572");
  ]

(* Call sites whose dereference actuals bind overlapping cell sets.
   In "storage overlap" [*p] and [*q] meet only through [g.c], which is
   bound to both [x] and [y] (Andersen keeps [p] and [q] apart); in
   "same dereference twice" one projection binds two formals; in
   "dereference and plain" a dereference meets a plain actual, at a
   site of [main] and, through [h]'s pairs, by propagation. *)
let set_binding_corpus =
  [
    ( "storage overlap",
      {|program m;
var x, y, z : int;
var p, q : ptr of int;
procedure g(var c : int);
begin
  c := 1;
end;
procedure f(var a : int; var b : int);
begin
  a := 1;
end;
procedure k(var s : int; var t : int; var u : int);
begin
  call f(s, u);
end;
begin
  p := &x;
  q := &y;
  call g(x);
  call g(y);
  call f( *p, *q);
  call k( *q, z, *p);
end.|} );
    ( "same dereference twice",
      {|program m;
var x, y : int;
var p : ptr of int;
procedure f(var a : int; var b : int);
begin
  a := 1;
end;
procedure h(var c : int; var d : int);
begin
  call f(c, d);
end;
begin
  p := &x;
  call f( *p, *p);
  call h( *p, *p);
  call h(y, *p);
end.|} );
    ( "dereference and plain",
      {|program m;
var x, y : int;
var p : ptr of int;
procedure f(var a : int; var b : int);
begin
  a := 1;
end;
procedure h(var u : int; var v : int);
begin
  call f(u, *p);
  call f( *p, v);
end;
begin
  p := &x;
  call f( *p, x);
  call h(x, y);
  call h(y, x);
end.|} );
  ]

let test_identity_golden () =
  List.iter
    (fun (name, make) ->
      let got = Digest.to_hex (Digest.string (identity_text (make ()))) in
      Alcotest.(check string) name (List.assoc name identity_digests) got)
    (Helpers.alias_corpus
    @ List.map (fun (name, src) -> (name, fun () -> compile src)) set_binding_corpus)

(* --- §5 cost ---

   The closure examines each caller pair once per site that has a
   by-reference binding, plus once more when the pair turns tainted,
   and each parent pair once per child the same way:
   [alias.pair_visits <= Σ_s E(caller s) + Σ_child E(parent)] over
   those sites, with [E(p) = |ALIAS(p)| + |TAINTED(p)|].  A site whose
   actuals bind no cell by reference can derive nothing, so reading its
   caller's pairs exceeds the bound, as does a sweep that re-walks
   every caller pair each round. *)

let pair_visits = Obs.Metric.counter "alias.pair_visits"

let test_pair_visits_bound () =
  let module F = Workload.Families in
  List.iter
    (fun (name, prog) ->
      let since = Obs.Metric.snapshot () in
      let t = Core.Analyze.run prog in
      let visits = Obs.Metric.value_since ~since pair_visits in
      let alias = t.Core.Analyze.alias in
      let e pid =
        List.fold_left
          (fun acc pair ->
            acc + if Core.Alias.pointer_tainted alias ~proc:pid pair then 2 else 1)
          0 (Core.Alias.pairs alias pid)
      in
      let binds (s : Ir.Prog.site) =
        Array.exists
          (function
            | Ir.Prog.Arg_ref lv -> Ir.Info.lvalue_cells t.Core.Analyze.info lv <> []
            | Ir.Prog.Arg_value _ -> false)
          s.Ir.Prog.args
      in
      let bound = ref 0 in
      Ir.Prog.iter_sites prog (fun s -> if binds s then bound := !bound + e s.Ir.Prog.caller);
      Ir.Prog.iter_procs prog (fun pr ->
          Option.iter (fun parent -> bound := !bound + e parent) pr.Ir.Prog.parent);
      if visits > !bound then
        Alcotest.failf "%s: %d pair visits exceed the bound %d" name visits !bound)
    [
      ("fortran_fixed 256", F.fortran_fixed ~seed:1 ~n:256);
      ("pascal_style 128 depth 4", F.pascal_style ~seed:1 ~n:128 ~depth:4);
      ("ptr_funnel 100", F.ptr_funnel 100);
      ("ptr_chain 100", F.ptr_chain 100);
    ]

(* Two sites of one caller read the same slice of its log in the
   same round: the second reuses the first's sort. *)
let slice_reads = Obs.Metric.counter "alias.slice_reads"
let slice_sorts = Obs.Metric.counter "alias.slice_sorts"

let test_slice_shared_by_sites () =
  let prog =
    compile
      {|program m;
var g : int;
procedure q(var a : int; var b : int);
begin
  a := 1;
end;
procedure r(var c : int; var d : int);
begin
  c := 1;
end;
procedure p(var x : int; var y : int);
begin
  call q(x, y);
  call r(x, y);
end;
begin
  call p(g, g);
end.|}
  in
  let since = Obs.Metric.snapshot () in
  let t = Core.Alias.compute (Ir.Info.make prog) in
  Alcotest.(check int) "three pairs in p" 3
    (List.length (Core.Alias.pairs t (Helpers.proc_id prog "p")));
  Alcotest.(check int) "both sites read p's pairs" 2
    (Obs.Metric.value_since ~since slice_reads);
  Alcotest.(check int) "sorted once" 1 (Obs.Metric.value_since ~since slice_sorts)

let () =
  Helpers.run "alias"
    [
      ( "introduction",
        [
          Alcotest.test_case "same actual at two positions" `Quick
            test_same_actual_twice;
          Alcotest.test_case "global passed by reference" `Quick
            test_global_passed_by_ref;
          Alcotest.test_case "invisible local introduces nothing" `Quick
            test_local_passed_no_alias;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "pair through a chain" `Quick test_propagation_chain;
          Alcotest.test_case "formal-global pair through a chain" `Quick
            test_propagation_formal_global;
          Alcotest.test_case "recursive fixpoint" `Quick test_recursive_fixpoint;
          Alcotest.test_case "inheritance down the nesting tree (regression)" `Quick
            test_nesting_inheritance;
          Alcotest.test_case "taint that arrives late still propagates" `Quick
            test_late_taint;
        ] );
      ( "closure",
        [
          Alcotest.test_case "one-step closure" `Quick test_close;
          Helpers.qtest ~count:50 "pairs relate visible variables"
            Helpers.arb_nested_prog prop_pairs_are_visible_pairs;
          Helpers.qtest ~count:50 "closure is extensive" Helpers.arb_flat_prog
            prop_close_superset;
          Helpers.qtest ~count:40 "lookups = pair scan (flat)" Helpers.arb_flat_prog
            (prop_lookups_match_scan (fun seed -> Helpers.flat_of_seed seed));
          Helpers.qtest ~count:40 "lookups = pair scan (nested)" Helpers.arb_nested_prog
            (prop_lookups_match_scan (fun seed -> Helpers.nested_of_seed seed));
          Helpers.qtest ~count:40 "lookups = pair scan (pointer)" arb_ptr_family
            (prop_lookups_match_scan ptr_family_of_seed);
        ] );
      ( "golden",
        [ Alcotest.test_case "alias and points-to identity" `Quick test_identity_golden ] );
      ( "cost",
        [
          Alcotest.test_case "pair visits within the derivation bound" `Quick
            test_pair_visits_bound;
          Alcotest.test_case "sites of one caller share a sorted slice" `Quick
            test_slice_shared_by_sites;
        ] );
    ]
