(* Interprocedural MUSTMOD — the must-modify dual of GMOD.  Directed
   cases pin the structural equations (branch intersection, loop
   erasure, call projection), the §5/ptsto demotion rules, and the
   precision gained by interprocedural kill sets over a
   top-level-statement under-approximation; property tests check the MUSTMOD ⊆ GMOD
   invariant and soundness against the interpreter's dynamic
   must-write oracle on random programs, pointer families included. *)

module P = Ir.Prog
module A = Core.Analyze
module M = Core.Mustmod

let pool4 = lazy (Par.Pool.create ~jobs:4)

let () =
  at_exit (fun () ->
      if Lazy.is_val pool4 then Par.Pool.shutdown (Lazy.force pool4))

let mustmod_of a pid = M.mustmod_of a.A.mustmod pid

let check_must a msg proc expected =
  let prog = a.A.prog in
  Helpers.check_var_set prog msg expected
    (mustmod_of a (Helpers.proc_id prog proc))

(* --- structural equations --- *)

(* A sequence accumulates; both-branch writes survive the intersection,
   one-branch writes and loop-body writes do not; a for header always
   writes its index (the interpreter stores the bound before the first
   test, so this is dynamically exact even for zero iterations). *)
let test_structure () =
  let a =
    A.run
      (Helpers.compile
         {|program t;
var g, h, u, w, i, acc : int;

begin
  g := 1;
  if g > 0 then
    h := 1;
    u := 1;
  else
    h := 2;
  end;
  while g < 10 do
    w := w + 1;
  end;
  for i := 1 to g do
    acc := acc + i;
  end;
  write acc;
end.|})
  in
  check_must a "main: both-branch h kept, one-branch u and loop body dropped"
    "t" [ "g"; "h"; "i" ]

(* Call statements contribute the callee's MUSTMOD through the binding:
   by-ref formals land on scalar whole-variable actuals, globals pass
   through, callee locals and by-value formals vanish. *)
let test_call_projection () =
  let a =
    A.run
      (Helpers.compile
         {|program t;
var g, x, y : int;

procedure leaf(v : int; var out : int);
var tmp : int;
begin
  tmp := v;
  out := tmp;
  g := g + 1;
end;

procedure mid(var o : int);
begin
  call leaf(3, o);
end;

begin
  call mid(x);
  write x + y;
end.|})
  in
  check_must a "leaf writes its by-ref formal, g, and tmp" "leaf"
    [ "leaf.out"; "leaf.tmp"; "g" ];
  check_must a "mid: out lands on o, g passes through, tmp dropped" "mid"
    [ "mid.o"; "g" ];
  check_must a "main: o lands on x" "t" [ "x"; "g" ]

(* Recursion: the SCC iterates from ∅, so a self-call contributes only
   what every unrolling agrees on — here nothing, because the recursive
   branch's writes meet the base branch's. *)
let test_recursion () =
  let a =
    A.run
      (Helpers.compile
         {|program t;
var g, n : int;

procedure down(var k : int);
begin
  if k > 0 then
    k := k - 1;
    call down(k);
  else
    g := 0;
  end;
end;

begin
  n := 3;
  call down(n);
  write g;
end.|})
  in
  check_must a "recursive branches disagree: nothing definite" "down" [];
  check_must a "main keeps its own write" "t" [ "n" ]

(* --- §5/ptsto demotion --- *)

(* A visible variable paired with a by-ref formal: the formal keeps its
   must-facts (the projection re-binds it at every site), the visible
   member is demoted. *)
let test_visible_demotion () =
  let a =
    A.run
      (Helpers.compile
         {|program t;
var sink : int;

procedure set(var out : int);
begin
  out := 1;
  sink := 2;
end;

begin
  call set(sink);
  write sink;
end.|})
  in
  let prog = a.A.prog in
  let pid = Helpers.proc_id prog "set" in
  check_must a "formal survives the <sink, out> pair; sink is demoted" "set"
    [ "set.out" ];
  Helpers.check_var_set prog "demoted column names sink" [ "sink" ]
    (M.demoted_of a.A.mustmod pid);
  check_must a "projection still re-attributes the write" "t" [ "sink" ]

(* Satellite: heap-overlap demotion must consult the ptsto tier.  The
   two dereference actuals can only collide through heap cells —
   Steensgaard unifies the two allocations (r flows from both p and q),
   Andersen keeps them apart — so the formal–formal pair exists only
   under the coarser tier, and only there are the formals excluded from
   MUSTMOD. *)
let heap_demo_src =
  {|program t;
var a, b : int;
var p, q, r : ptr of int;

procedure mix(var c : int; var d : int);
begin
  c := 1;
  d := 2;
end;

begin
  p := new int;
  q := new int;
  r := p;
  r := q;
  call mix( *p, *q);
  a := *p;
  b := *q;
  write a + b;
end.|}

let test_heap_demotion () =
  let prog = Helpers.compile heap_demo_src in
  let coarse = A.run ~ptsto:Ptsto.Steensgaard prog in
  let fine = A.run ~ptsto:Ptsto.Andersen prog in
  check_must coarse
    "steensgaard: unified heap cells alias the formals, both demoted" "mix" [];
  check_must fine "andersen: allocations stay apart, both formals definite"
    "mix" [ "mix.c"; "mix.d" ]

(* --- precision over a top-level-statement approximation --- *)

(* A pinned family: the definite write sits under an if/else at the
   bottom of a call chain, invisible to a MUSTDEF that counts only
   top-level statements but carried up by the interprocedural
   summaries — so the dataflow kill set crosses the chain and the
   dead-store rule fires on the store before the call.  Soundness of the claim is cross-checked
   against the interpreter: every completed execution of the site
   writes x, and none reads it first. *)
let deep_kill_src depth =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "program deep;\nvar x : int;\n";
  add
    "\nprocedure w0(var v : int);\nbegin\n  if 1 > 0 then\n    v := 1;\n\
    \  else\n    v := 2;\n  end;\nend;\n";
  for k = 1 to depth do
    add "\nprocedure w%d(var v : int);\nbegin\n  call w%d(v);\nend;\n" k (k - 1)
  done;
  add "\nbegin\n  x := 5;\n  call w%d(x);\n  write x;\nend.\n" depth;
  Buffer.contents buf

let test_deep_kill () =
  List.iter
    (fun depth ->
      let prog = Helpers.compile (deep_kill_src depth) in
      let a = A.run prog in
      let top = Printf.sprintf "w%d" depth in
      check_must a (top ^ " carries the branch-intersected write up") top
        [ top ^ ".v" ];
      (* Interprocedural MUSTMOD is strictly stronger than a
         top-level-statement approximation: w0's body is a single
         [if] with no top-level write, yet MUSTMOD(w0) = {w0.v}. *)
      check_must a "w0 intersects both branches" "w0" [ "w0.v" ];
      (match (P.proc prog (Helpers.proc_id prog "w0")).P.body with
      | [ Ir.Stmt.If _ ] -> ()
      | _ -> Alcotest.fail "w0's body should be a single if");
      let tf = Dataflow.Transfer.make a in
      let x = Helpers.var_id prog "x" in
      let sid = ref (-1) in
      P.iter_sites prog (fun s ->
          if s.P.caller = prog.P.main then sid := s.P.sid);
      Helpers.check_bool "interprocedural kill reaches x" true
        (Bitvec.get (Dataflow.Transfer.kill_of_site tf !sid) x);
      let fs = Lint.Engine.run a in
      Helpers.check_bool "SFX008 flags the pre-call store" true
        (List.exists (fun d -> d.Lint.Diagnostic.code = "SFX008") fs);
      let o = Interp.run prog in
      Helpers.check_bool "run not truncated" false o.Interp.truncated;
      (match Interp.observed_must o !sid with
      | None -> Alcotest.fail "site never completed"
      | Some om ->
        Helpers.check_bool "every completed run writes x" true (Bitvec.get om x));
      Helpers.check_bool "no run reads x before writing it" false
        (Bitvec.get (Interp.observed_live o !sid) x))
    [ 1; 4; 9 ]

(* --- properties --- *)

let subset_prop prog =
  let a = A.run prog in
  M.check_subset a.A.mustmod ~gmod:a.A.gmod

(* Soundness against the dynamic oracle: the kill set the dataflow
   consumes (projected MUSTMOD minus caller-side aliasing) claims only
   variables every completed, skip-free execution of the site wrote. *)
let oracle_prop prog =
  let a = A.run prog in
  let tf = Dataflow.Transfer.make a in
  let o = Interp.run ~fuel:50_000 ~max_depth:128 prog in
  let ok = ref true in
  P.iter_sites prog (fun s ->
      match Interp.observed_must o s.P.sid with
      | None -> ()
      | Some om ->
        let kill = Dataflow.Transfer.kill_of_site tf s.P.sid in
        Bitvec.iter
          (fun v ->
            if not (Bitvec.get om v) then begin
              ok := false;
              QCheck.Test.fail_reportf
                "site %d: '%s' claimed must-written but some completed run \
                 skipped it"
                s.P.sid
                (Ir.Pp.qualified_var_name prog v)
            end)
          kill);
  !ok

(* A self-call is an in-component edge like any other: when [p]'s set
   grows, [p] itself must be solved again.  Every terminating run of
   [p] writes [b] — the base branch directly, the recursive branch
   through the callee's [a], which the swapped binding lands on [b] —
   so the least fixpoint holds both formals, and main's call writes
   both actuals.  The interpreter confirms the claim at main's site. *)
let test_self_recursion () =
  let prog =
    Helpers.compile
      {|program t;
var g, x, y : int;

procedure p(var a : int; var b : int);
begin
  if g > 0 then
    g := g - 1;
    call p(b, a);
  else
    b := 0;
  end;
  a := 1;
end;

begin
  g := 3;
  call p(x, y);
end.|}
  in
  let a = A.run prog in
  check_must a "both formals: every terminating path writes b" "p"
    [ "p.a"; "p.b" ];
  check_must a "main: both actuals" "t" [ "g"; "x"; "y" ];
  Helpers.check_bool "kill sets sound vs interpreter" true (oracle_prop prog);
  let sid = ref (-1) in
  P.iter_sites prog (fun s -> if s.P.caller = prog.P.main then sid := s.P.sid);
  match Interp.observed_must (Interp.run prog) !sid with
  | None -> Alcotest.fail "site never completed"
  | Some om ->
    Helpers.check_bool "every completed run writes y" true
      (Bitvec.get om (Helpers.var_id prog "y"))

(* Random pointer programs, in the style of the points-to suite: every
   pointer starts aimed at a distinct global, so any generated suffix
   is valid and deref-safe. *)
let ptr_src_of_seed seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  let n_stmts = 6 + Random.State.int st 16 in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "program gen%d;\n" seed;
  add "var g0, g1, g2, g3 : int;\n";
  add "var p0, p1, p2 : ptr of int;\n";
  add
    "\nprocedure put(var c : int; var d : int);\nbegin\n  c := d + 1;\n\
    \  if d > 3 then\n    d := 0;\n  end;\nend;\n";
  add "\nbegin\n";
  for i = 0 to 2 do
    add "  p%d := &g%d;\n" i i
  done;
  for _ = 1 to n_stmts do
    let p = Random.State.int st 3 and g = Random.State.int st 4 in
    match Random.State.int st 8 with
    | 0 -> add "  p%d := &g%d;\n" p g
    | 1 -> add "  p%d := p%d;\n" p (Random.State.int st 3)
    | 2 -> add "  p%d := new int;\n" p
    | 3 -> add "  *p%d := %d;\n" p (Random.State.int st 100)
    | 4 -> add "  g%d := *p%d;\n" g p
    | 5 -> add "  call put( *p%d, g%d);\n" p g
    | 6 -> add "  call put(g%d, *p%d);\n" g p
    | _ -> add "  g%d := g%d + %d;\n" g g (Random.State.int st 10)
  done;
  add "  write g0 + g1 + g2 + g3;\nend.\n";
  Buffer.contents buf

let ptr_prog_of_seed seed = Helpers.compile (ptr_src_of_seed seed)

let arb_ptr_prog =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "ptr seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

(* --- parallel and incremental agreement --- *)

let jobs_prop of_seed seed =
  let prog = of_seed seed in
  let seq = A.run prog in
  let par = A.run ~pool:(Lazy.force pool4) prog in
  Helpers.gmod_arrays_equal seq.A.mustmod.M.mustmod par.A.mustmod.M.mustmod

let test_incremental_resolve () =
  let prog = Helpers.compile (deep_kill_src 4) in
  let engine = Incremental.Engine.create prog in
  let w0 = Helpers.proc_id prog "w0" in
  let g = Helpers.var_id prog "x" in
  (* Turn w0's one-branch structure into an unconditional prologue
     write: the whole ancestor cone's MUSTMOD shifts. *)
  let (_ : Incremental.Engine.outcome) =
    Incremental.Engine.apply engine
      (Incremental.Edit.Add_assign
         { proc = w0; target = g; value = Ir.Expr.Int 7 })
  in
  let inc = Incremental.Engine.analysis engine in
  let batch = A.run (Incremental.Engine.prog engine) in
  Helpers.check_bool "resolved MUSTMOD = batch MUSTMOD" true
    (Helpers.gmod_arrays_equal inc.A.mustmod.M.mustmod
       batch.A.mustmod.M.mustmod)

(* The re-solve runs the batch component solver through the one
   propagation driver, which prunes: no seed runs no component, and a
   seed whose sets come out unchanged runs its own component alone,
   although its ancestor cone is the whole chain. *)
let test_resolve_prunes () =
  let prog = Workload.Families.ref_chain 64 in
  let a = A.run prog in
  let rounds = Option.get (Obs.Metric.find "mustmod.rounds") in
  let resolve procs =
    let snap = Obs.Metric.snapshot () in
    let r =
      M.resolve a.A.mustmod a.A.info ~alias:a.A.alias ~gmod:a.A.gmod
        ~changed_procs:procs
    in
    Helpers.check_int "registry delta = result.rounds" r.M.rounds
      (Obs.Metric.value_since ~since:snap rounds);
    Helpers.check_bool "MUSTMOD unchanged" true
      (Helpers.gmod_arrays_equal r.M.mustmod a.A.mustmod.M.mustmod);
    r.M.rounds
  in
  Helpers.check_int "no seed: no component" 0 (resolve []);
  Helpers.check_int "unmoved seed: its component only" 1
    (resolve [ Helpers.proc_id prog "p64" ])

(* --- digest golden ---

   Digests of everything MUSTMOD hands downstream: per procedure its
   MUSTMOD, IMUSTDEF and alias-demoted sets, the provenance reason of
   every must fact, and the SFX012/SFX013 findings built on them (both
   points-to tiers on pointer programs).  They were recorded with the
   full-universe generator on nested programs and the globals-plus-own
   frames on flat ones; any change to what MUSTMOD computes changes a
   digest. *)

let must_reason_str = function
  | Core.Provenance.Mdef -> "def"
  | Mcall { site; pre } -> Printf.sprintf "call s%d %d" site pre

let must_digest_text prog =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let ints v = String.concat "," (List.map string_of_int (Bitvec.to_list v)) in
  let rules =
    List.filter_map Lint.Rule.find [ "use-before-init"; "redundant-store" ]
  in
  let tiers =
    if Ptsto.has_pointers prog then [ Ptsto.Steensgaard; Ptsto.Andersen ]
    else [ Ptsto.Steensgaard ]
  in
  List.iter
    (fun tier ->
      let a = A.run ~provenance:true ~ptsto:tier prog in
      let m = a.A.mustmod in
      add "tier %s\n" (Ptsto.tier_name tier);
      for pid = 0 to P.n_procs prog - 1 do
        add "p%d must [%s] intra [%s] demoted [%s]\n" pid
          (ints (M.mustmod_of m pid))
          (ints (M.intra_of m pid))
          (ints (M.demoted_of m pid))
      done;
      (match A.provenance_forest a with
      | None -> ()
      | Some pv ->
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) pv.Core.Provenance.must []
        |> List.sort compare
        |> List.iter (fun ((pid, v), r) ->
               add "why p%d %d: %s\n" pid v (must_reason_str r)));
      List.iter
        (fun d ->
          add "%s | %s\n"
            (Fmt.str "%a" Lint.Diagnostic.pp d)
            (String.concat "; " (Lazy.force d.Lint.Diagnostic.witness)))
        (Lint.Engine.run ~rules a))
    tiers;
  Buffer.contents b

let must_digests =
  [
    ("pascal_style s1 d2 n16", "84df0f18f032c60b7c41a60188f053ec");
    ("pascal_style s1 d2 n64", "ec505f122496b58113e16937062d8055");
    ("pascal_style s1 d2 n256", "34c2b8143730939272a18af4a46ffb4c");
    ("pascal_style s1 d3 n16", "2390b35a76913aafb09da1d1de2108d0");
    ("pascal_style s1 d3 n64", "d1e3b13010b0dbec33f5a5fcb85b16f3");
    ("pascal_style s1 d3 n256", "2b991a8e55472174e6a8ed0af1a66b5a");
    ("pascal_style s1 d4 n16", "935e7d5f596d8a890a64a8ea31c627c2");
    ("pascal_style s1 d4 n64", "9c3a8f021ba4b3a1e8410cbed758ce3e");
    ("pascal_style s1 d4 n256", "ff599e7498731fdd03be2914cccb7694");
    ("pascal_style s1 d6 n16", "881b6842f6da82cdb284a2d7e017c0c7");
    ("pascal_style s1 d6 n64", "6dee7ecc7cd19d73299489debc9e3028");
    ("pascal_style s1 d6 n256", "67618d3a40c0ea9d4197a32d2e494139");
    ("pascal_style s2 d2 n16", "f2fd9961706e71c4f6646cc6e4e1e96c");
    ("pascal_style s2 d2 n64", "8ed03fd8cfbe38bf9d4d09e7bd8caffd");
    ("pascal_style s2 d2 n256", "be86a55af9e2af4821adcdbf9e7782b2");
    ("pascal_style s2 d3 n16", "f2d74d80194078dde575bddf06c643e2");
    ("pascal_style s2 d3 n64", "4d7117a7c0fc0bc6789591cf06c2ee6c");
    ("pascal_style s2 d3 n256", "639124ee230dd535c2f82c07f000622d");
    ("pascal_style s2 d4 n16", "64927645a1a0aa69eb0d5d0c7bc8d894");
    ("pascal_style s2 d4 n64", "809c1a96bd904f9f5e05cb8ae81b4c19");
    ("pascal_style s2 d4 n256", "5becbaf88458f569e3dcc565e47914a2");
    ("pascal_style s2 d6 n16", "39b002e15c0291211822e84cc6146ca7");
    ("pascal_style s2 d6 n64", "013895be5b3e39c53ac8377864de2d15");
    ("pascal_style s2 d6 n256", "b8cdafdf2964ce9a84bd1123103e28c8");
    ("pascal_style s3 d2 n16", "a3611cfd7a122f537b7fb0c570969691");
    ("pascal_style s3 d2 n64", "0b70d616865b1faf17bacbf94f571f4c");
    ("pascal_style s3 d2 n256", "5778b446c1d128f4d9a1a6807153a269");
    ("pascal_style s3 d3 n16", "4b681eb7e7fc605202c4a128021c55d1");
    ("pascal_style s3 d3 n64", "ad5db6e1c0e91e0e1b48916c17b15eb3");
    ("pascal_style s3 d3 n256", "7f90f29cf8bc876a0da9315a277c7d24");
    ("pascal_style s3 d4 n16", "00622bef5df7868b178b2e3cec7f0e42");
    ("pascal_style s3 d4 n64", "55cb2afa3892f492122850d08638f47c");
    ("pascal_style s3 d4 n256", "ada28a77e0a9ee236b94516b5b5729a2");
    ("pascal_style s3 d6 n16", "7788267da246b9bb727aaae3bb3641fe");
    ("pascal_style s3 d6 n64", "9d26edb57ba41c1f52208275f7f88dcb");
    ("pascal_style s3 d6 n256", "12bd974840c8c67effb021cdb35a19bb");
    ("pascal_style s4 d2 n16", "40f4031259d84a142137a4bf41461cc4");
    ("pascal_style s4 d2 n64", "ee8f8a04cb91d55171342a7f652d0fdd");
    ("pascal_style s4 d2 n256", "df5448dfe0003bd7c3b8f73071630462");
    ("pascal_style s4 d3 n16", "80edee0a21712f6f7ee419e70a7ce40c");
    ("pascal_style s4 d3 n64", "494eb60ba3890523ec1512a5d886dd46");
    ("pascal_style s4 d3 n256", "98be08d2a74def912a75c99477f20416");
    ("pascal_style s4 d4 n16", "73b6243cda53da59931344976d8a7cce");
    ("pascal_style s4 d4 n64", "17bbada670f42b58e3d9eba307641c10");
    ("pascal_style s4 d4 n256", "a8cd687f89e97fbb2949cbf63506e6a9");
    ("pascal_style s4 d6 n16", "59b19131285966d89a2b13df9b0aa8a2");
    ("pascal_style s4 d6 n64", "f9e79a622005850e25256fc24f5ec77d");
    ("pascal_style s4 d6 n256", "2653c9e60f1c4f6260c42002624e1187");
    ("pascal_style s5 d2 n16", "aea4eccc3ecafe9b14b6fbb9e4d48f3e");
    ("pascal_style s5 d2 n64", "ea90b95e6395ff63fdf13a8d8bda6a30");
    ("pascal_style s5 d2 n256", "6b13fd3819bb479cbccc2dc0a35b371e");
    ("pascal_style s5 d3 n16", "ac29366b239a51e1c426874358f90157");
    ("pascal_style s5 d3 n64", "1f5b57dea8cf6b4b81f7236eb524c5b1");
    ("pascal_style s5 d3 n256", "4d15c84eb0c88926118e65a75fd66509");
    ("pascal_style s5 d4 n16", "4d26690a65fc04ff58ab2187dbe01d07");
    ("pascal_style s5 d4 n64", "8b4386e9cf37aaf8215d3aa595f23d3e");
    ("pascal_style s5 d4 n256", "f6282b4754fdde9e6957a1b74c56906e");
    ("pascal_style s5 d6 n16", "b0f559c4e29d92a6c238bdf2f55fa0f5");
    ("pascal_style s5 d6 n64", "a3a0149f877265887d1f912623b4c421");
    ("pascal_style s5 d6 n256", "84dd0b3aab82b2c2867d73dd5c62a126");
    ("gen 0", "2953caf5693a6000b13d800ba3298070");
    ("gen 1", "34102611f11efb39c46c48965866b7e0");
    ("gen 2", "7d40a6f857dbda350d134758ee1faa5a");
    ("gen 3", "2c7c3b0a040a896b23dd5e9e85adb334");
    ("gen 4", "3b64e9bb24630e4eb37d58b1da1dc218");
    ("gen 5", "75dc25db9d324f4176cb1534a6d6cf76");
    ("gen 6", "ede2bde231e024880011c85f7064ee99");
    ("gen 7", "39bfb89dd9b9abe4f25469a97b2652cb");
    ("gen 8", "1a8fa2f3581ea8dabcf59daef9821e17");
    ("gen 9", "e1141d6f4ae3bae1be19e9210132e166");
    ("gen 10", "f1ef82747e3479d923a3d3a204d28732");
    ("gen 11", "4cbcbb5c1ad667bfe3041d85a1630780");
    ("gen 12", "197c44a5060d7e4d8c8f5a42398ef4cb");
    ("gen 13", "36d6a979718e213c0aed5b20692904a7");
    ("gen 14", "4604081ceecdc77407229a3e326786cf");
    ("gen 15", "76f014c4beb79f7bc73a143bb33bfed1");
    ("gen 16", "d77113a534f04f3fe0b1204ec21e3485");
    ("gen 17", "2bf1c6f59ff9f8caf0e2067fe92ece48");
    ("gen 18", "3a65b15eed6729da5cbfb9b0c82a7309");
    ("gen 19", "1b687a271fc468b82654ee85e033b381");
    ("gen 20", "160414977fea7a5430818cc0800fa496");
    ("gen 21", "18dc7521794976663b67bf292e4b9cde");
    ("gen 22", "0c953d285df9494e5e44bbe77729fd69");
    ("gen 23", "c232b81dacb1549955fe6d604d0442e1");
    ("gen 24", "b2958e2a068ee6ec7ae380929331890d");
    ("gen 25", "b2ac05acd6efba09d932cdddc158025c");
    ("gen 26", "efc0a66d7e0a4715ffb0992e06647649");
    ("gen 27", "41b87905fc254de4f1050d4b643d1452");
    ("gen 28", "d05f88b40438573b38e9aad99953994d");
    ("gen 29", "ea4fd7ee851958e720b4e3afa7537792");
    ("gen 30", "c520d3d1e29d231a821d5475afb293f0");
    ("gen 31", "e960d36e6061e7ee3319725583b3eaee");
    ("gen 32", "cd11658390470812227eddac63a59cfe");
    ("gen 33", "4db56001590db68ab8ad80282efa82e5");
    ("gen 34", "dbea7b7eeded857d0eb81a92a6e234e0");
    ("gen 35", "be58917a0f8e473d9ca85542c23d6f89");
    ("gen 36", "4d626d207c87d7fdd15f8463acfa9d16");
    ("gen 37", "756608956b57d9ced4f24a73aa45fe99");
    ("gen 38", "d90a71c76c35692d0da31d0a715182a7");
    ("gen 39", "496c9fc629d178f3b4f5c817875513d8");
    ("gen 40", "4ee740bc9d201899dd84164d1815ece5");
    ("gen 41", "56a8028955417e4857cf7f26c8fe6b27");
    ("gen 42", "db809998bfdef570e6f747cb53945e92");
    ("gen 43", "96eb8aed804163e8047a35580dc42dea");
    ("gen 44", "c4ecc4152c825ad98d8a43e0f7902878");
    ("gen 45", "97b79f474d485969594faffa547defa0");
    ("gen 46", "4e7ef7e06b1c2e540144f9a48d717eab");
    ("gen 47", "e0a4065c9b49cf3cf1766a77b44458c7");
    ("gen 48", "6a563d194795137483021ff0f29b0227");
    ("gen 49", "3d994e70ee92ef1929a6a74d2b828c0f");
    ("gen 50", "b1fa989dbfe7f8425be8d20f05ab3b08");
    ("gen 51", "b3c0117c8c90d784c335c88af19e2693");
    ("gen 52", "e72ee183c255fdd8de789b887529506e");
    ("gen 53", "e7714cf354322d54bc90b58d1842c725");
    ("gen 54", "48dd9a24c7779a13f79980ea126855a4");
    ("gen 55", "6754d4a3d5ed8da5a62cd5a978469702");
    ("gen 56", "5d29ce660b1840fbc98a05a18a577169");
    ("gen 57", "955e00480124206c3e40c09f7c4011d6");
    ("gen 58", "d83c0f58e2b3c37591e7fe7a319be9f3");
    ("gen 59", "800ba0a2fb2e2f8b378f5bcb17dc0ef4");
    ("nested_textbook", "668c7054d4b73e44ff16cf4d8cedfa03");
    ("fortran_style s1", "d3485a1619e9ea893b69109592a9977b");
    ("fortran_fixed s1", "b66fd30a3e6a28cb47b514586f57491b");
    ("dag_style s1", "e13cd61a6a7ad2b9e813775a6002e612");
    ("pascal_style s1", "9c3a8f021ba4b3a1e8410cbed758ce3e");
    ("fortran_style s2", "98c94b4fa9e00f1e3eb43c283a52bd6b");
    ("fortran_fixed s2", "812a0d0488c9ffa73b3102f27228ae23");
    ("dag_style s2", "528682c94db82ddc36363d4419559196");
    ("pascal_style s2", "809c1a96bd904f9f5e05cb8ae81b4c19");
    ("ptr_chain 2", "3b6501e2b8a4b6f134b3cb07b11369fa");
    ("ptr_funnel 2", "fc6ddb8eb7f7f1b1c60cd2a765f84c68");
    ("ptr_chain 16", "e793db0790c06df82311c837568873d6");
    ("ptr_funnel 16", "da8f592623286a8faa95e856259ce769");
    ("ptr_chain 64", "1d6551250475e61c8b13c9b2835541be");
    ("ptr_funnel 64", "d63da9124a89b978d099130a78c6bb43");
    ("bank.mp", "b399480744d796f59641738f27d187b7");
    ("dataflow_demo.mp", "e573858f7aed1584342f283f979f2c0f");
    ("lint_demo.mp", "1209ee3043f5d3a7e54055c1371fffec");
    ("mustmod_demo.mp", "7008f37c8ec3e0d47b63002a99766f1b");
    ("pipeline.mp", "1da3896bfbc5a512bba3df2361872d5d");
    ("pointers.mp", "f08f0efc4b5758dba0240571576e7527");
    ("ptr_lint.mp", "4be9a81f0c02409877c0724e1d2f2020");
    ("report.mp", "da1579b73e255b1be7d5a6d9f65c53ed");
    ("stencil.mp", "3816d664b398efcce18b2246d0c8ecbc");
  ]

(* The families whose call graphs have large cyclic components (the
   corpus above stops at 64 procedures), at the sizes where the
   component solver does most of its work, recorded on the worklist
   solver.  In [pascal_style s5 d4 n128] a self-recursive procedure's
   set grows through its own call. *)
let must_digests_large =
  let module F = Workload.Families in
  [
    ( "fortran_fixed s7 n1024",
      (fun () -> F.fortran_fixed ~seed:7 ~n:1024),
      "6d858290a6aa0c2b72fa062c8fdf7d51" );
    ( "fortran_style s7 n256",
      (fun () -> F.fortran_style ~seed:7 ~n:256),
      "06e95815ddf76c3a031feca87b971136" );
    ( "fortran_style s7 n1024",
      (fun () -> F.fortran_style ~seed:7 ~n:1024),
      "73a02e639d654b58fddf129e09e330a0" );
    ( "dag_style s7 n256",
      (fun () -> F.dag_style ~seed:7 ~n:256),
      "deb56520e14d69f99f205fec2210417e" );
    ( "pascal_style s7 d4 n128",
      (fun () -> F.pascal_style ~seed:7 ~n:128 ~depth:4),
      "b57ae4b6ee54280462a8b64588370d3f" );
    ( "pascal_style s5 d4 n128",
      (fun () -> F.pascal_style ~seed:5 ~n:128 ~depth:4),
      "fb1cd2b58212c858a558d70bba2f94b2" );
    ("ptr_chain 256", (fun () -> F.ptr_chain 256), "5ca0c1adf99d084f5f3802e71bde62d7");
    ("ptr_funnel 256", (fun () -> F.ptr_funnel 256), "3b7483b24b79a9f36860af4cb59edabe");
    ("ptr_heap 256", (fun () -> F.ptr_heap 256), "187bd29df9511954851976b96ce8452a");
  ]

let test_must_golden_large () =
  List.iter
    (fun (name, make, digest) ->
      Alcotest.(check string) name digest
        (Digest.to_hex (Digest.string (must_digest_text (make ())))))
    must_digests_large

let test_must_golden () =
  List.iter
    (fun (name, make) ->
      let got = Digest.to_hex (Digest.string (must_digest_text (make ()))) in
      Alcotest.(check string) name (List.assoc name must_digests) got)
    (Helpers.must_corpus ())

let () =
  Helpers.run "mustmod"
    [
      ( "golden",
        [
          Alcotest.test_case "MUSTMOD digests" `Quick test_must_golden;
          Alcotest.test_case "MUSTMOD digests, large components" `Quick
            test_must_golden_large;
        ] );
      ( "directed",
        [
          Alcotest.test_case "structural equations" `Quick test_structure;
          Alcotest.test_case "call projection" `Quick test_call_projection;
          Alcotest.test_case "recursion meets to bottom" `Quick test_recursion;
          Alcotest.test_case "self-recursion reaches the least fixpoint" `Quick
            test_self_recursion;
          Alcotest.test_case "visible-member demotion" `Quick
            test_visible_demotion;
          Alcotest.test_case "heap demotion follows the ptsto tier" `Quick
            test_heap_demotion;
          Alcotest.test_case "interprocedural kills beat local MUSTDEF" `Quick
            test_deep_kill;
          Alcotest.test_case "incremental resolve agrees with batch" `Quick
            test_incremental_resolve;
          Alcotest.test_case "resolve prunes at unchanged sets" `Quick
            test_resolve_prunes;
        ] );
      ( "properties",
        [
          Helpers.qtest ~count:60 "MUSTMOD ⊆ GMOD (flat)" Helpers.arb_flat_prog
            (fun seed -> subset_prop (Helpers.flat_of_seed seed));
          Helpers.qtest ~count:40 "MUSTMOD ⊆ GMOD (nested)"
            Helpers.arb_nested_prog (fun seed ->
              subset_prop (Helpers.nested_of_seed seed));
          Helpers.qtest ~count:60 "MUSTMOD ⊆ GMOD (pointers)" arb_ptr_prog
            (fun seed -> subset_prop (ptr_prog_of_seed seed));
          Helpers.qtest ~count:40 "kill sets sound vs interpreter (flat)"
            Helpers.arb_flat_prog (fun seed ->
              oracle_prop (Helpers.flat_of_seed seed));
          Helpers.qtest ~count:30 "kill sets sound vs interpreter (nested)"
            Helpers.arb_nested_prog (fun seed ->
              oracle_prop (Helpers.nested_of_seed seed));
          Helpers.qtest ~count:40 "kill sets sound vs interpreter (pointers)"
            arb_ptr_prog (fun seed -> oracle_prop (ptr_prog_of_seed seed));
          Helpers.qtest ~count:30 "pool run bit-identical (flat)"
            Helpers.arb_flat_prog (jobs_prop Helpers.flat_of_seed);
          Helpers.qtest ~count:20 "pool run bit-identical (nested)"
            Helpers.arb_nested_prog (jobs_prop Helpers.nested_of_seed);
        ] );
    ]
