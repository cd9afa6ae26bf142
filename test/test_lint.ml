(* The lint engine: directed per-rule cases on minimal programs,
   determinism under rule order and worker count, an interpreter
   cross-check of the pure-proc verdict, and diagnostic deltas across
   incremental edits. *)

module D = Lint.Diagnostic
module E = Lint.Engine
module R = Lint.Rule

let pool4 = lazy (Par.Pool.create ~jobs:4)

let () =
  at_exit (fun () ->
      if Lazy.is_val pool4 then Par.Pool.shutdown (Lazy.force pool4))

let lint src =
  let prog = Helpers.compile src in
  (prog, E.run (Core.Analyze.run prog))

let has code scope fs =
  List.exists (fun d -> d.D.code = code && d.D.scope = scope) fs

let count code fs = List.length (List.filter (fun d -> d.D.code = code) fs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- directed rule cases --- *)

let test_unused_formal () =
  let _, fs =
    lint
      {|program t1;
var g, h : int;

procedure p(var used : int; var dead : int);
begin
  used := used + 1;
end;

begin
  g := 0;
  call p(g, h);
  write g;
end.|}
  in
  Helpers.check_int "one SFX001" 1 (count "SFX001" fs);
  Helpers.check_bool "scope is p" true (has "SFX001" "p" fs);
  let d = List.find (fun d -> d.D.code = "SFX001") fs in
  Helpers.check_bool "names the formal" true (contains d.D.message "dead");
  (* 'used' is in both RMOD and RUSE, so it is not reported; and with
     distinct actuals nothing aliases. *)
  Helpers.check_int "no SFX004" 0 (count "SFX004" fs);
  Helpers.check_int "no SFX005" 0 (count "SFX005" fs)

let test_write_only_global () =
  let _, fs =
    lint
      {|program t2;
var sink, src : int;

procedure logit(x : int);
begin
  sink := x;
end;

begin
  src := 1;
  call logit(src);
end.|}
  in
  Helpers.check_int "one SFX002" 1 (count "SFX002" fs);
  let d = List.find (fun d -> d.D.code = "SFX002") fs in
  Helpers.check_bool "names sink" true (contains d.D.message "sink");
  Alcotest.(check string) "global scope is the program" "t2" d.D.scope;
  (* logit writes a global: not pure. *)
  Helpers.check_bool "logit not pure" false (has "SFX003" "logit" fs)

let test_pure_proc_io_masked () =
  let prog, fs =
    lint
      {|program t3;
var g : int;

procedure pure_inc(var x : int);
begin
  x := x + 1;
end;

procedure noisy(var x : int);
begin
  write x;
end;

procedure wraps(var x : int);
begin
  call noisy(x);
end;

begin
  g := 0;
  call pure_inc(g);
  call wraps(g);
  write g;
end.|}
  in
  Helpers.check_bool "pure_inc flagged" true (has "SFX003" "pure_inc" fs);
  Helpers.check_bool "direct I/O masked" false (has "SFX003" "noisy" fs);
  Helpers.check_bool "transitive I/O masked" false (has "SFX003" "wraps" fs);
  let t = Core.Analyze.run prog in
  Alcotest.(check (list int))
    "pure_procs = the one pid"
    [ Helpers.proc_id prog "pure_inc" ]
    (R.pure_procs t)

let alias_src =
  {|program t4;
var g : int;

procedure set(var x : int);
begin
  x := 1;
end;

procedure pair(var a : int; var b : int);
begin
  call set(a);
  b := b + 0;
end;

begin
  g := 0;
  call pair(g, g);
  write g;
end.|}

let test_alias_inflation () =
  let prog, fs = lint alias_src in
  Helpers.check_bool "SFX004 inside pair" true (has "SFX004" "pair" fs);
  let d = List.find (fun d -> d.D.code = "SFX004") fs in
  Helpers.check_bool "witness pair named" true (contains d.D.message "<");
  (* The highlight predicate agrees with the rule: the inflated site is
     the call to set inside pair. *)
  let t = Core.Analyze.run prog in
  let sids = R.inflated_sites t in
  Helpers.check_bool "some inflated site" true (sids <> []);
  List.iter
    (fun sid ->
      let s = Ir.Prog.site prog sid in
      Helpers.check_int "inflated caller is pair"
        (Helpers.proc_id prog "pair")
        s.Ir.Prog.caller)
    sids

let test_aliased_actuals () =
  let _, fs = lint alias_src in
  Helpers.check_int "one SFX005" 1 (count "SFX005" fs);
  let d = List.find (fun d -> d.D.code = "SFX005") fs in
  Alcotest.(check string) "at the main call" "t4" d.D.scope;
  Helpers.check_bool "is an error" true (d.D.severity = D.Error)

let test_loop_parallel () =
  let _, fs =
    lint
      {|program t5;
var n, i, total : int;
var a : array[8] of int;

procedure inc(var cell : int);
begin
  cell := cell + 1;
end;

procedure acc(var cell : int);
begin
  total := total + cell;
end;

begin
  n := 8;
  for i := 1 to n do
    call inc(a[i]);
  end;
  for i := 1 to n do
    call acc(a[i]);
  end;
  write total;
end.|}
  in
  Helpers.check_int "one parallel loop" 1 (count "SFX007" fs);
  Helpers.check_int "one conflicting loop" 1 (count "SFX006" fs);
  let d = List.find (fun d -> d.D.code = "SFX006") fs in
  Helpers.check_bool "conflict names total" true (contains d.D.message "total")

(* --- locations --- *)

let test_locations () =
  let src =
    "program t6;\n\
     var g, h : int;\n\
     \n\
     procedure p(var used : int; var dead : int);\n\
     begin\n\
    \  used := 1;\n\
     end;\n\
     \n\
     begin\n\
    \  g := 0;\n\
    \  call p(g, h);\n\
    \  write g;\n\
     end."
  in
  match Frontend.Sema.compile_with_locs ~file:"t6.mp" src with
  | Error _ -> Alcotest.fail "t6 does not compile"
  | Ok (prog, locs) ->
    let t = Core.Analyze.run prog in
    let fs = E.run ~locs t in
    let d = List.find (fun d -> d.D.code = "SFX001") fs in
    Alcotest.(check string) "file" "t6.mp" d.D.loc.Frontend.Loc.file;
    Helpers.check_int "formal's line" 4 d.D.loc.Frontend.Loc.line;
    (* Without a table every finding sits at the dummy position. *)
    List.iter
      (fun d ->
        Helpers.check_bool "dummy loc" true (d.D.loc = Frontend.Loc.dummy))
      (E.run t)

(* --- reporter stability --- *)

let test_json_keys () =
  let _, fs = lint alias_src in
  Helpers.check_bool "has findings" true (fs <> []);
  List.iter
    (fun d ->
      match D.to_json d with
      | Obs.Json.Obj fields ->
        Alcotest.(check (list string))
          "stable key set"
          [
            "code"; "rule"; "severity"; "file"; "line"; "col"; "scope";
            "message"; "hint"; "witness";
          ]
          (List.map fst fields)
      | _ -> Alcotest.fail "finding JSON must be an object")
    fs

let test_severity_roundtrip () =
  List.iter
    (fun s ->
      match D.severity_of_string (D.severity_to_string s) with
      | Some s' -> Helpers.check_bool "roundtrip" true (s = s')
      | None -> Alcotest.fail "severity roundtrip")
    [ D.Note; D.Warning; D.Error ];
  Helpers.check_bool "unknown rejected" true
    (D.severity_of_string "fatal" = None);
  Helpers.check_bool "order" true
    (D.severity_order D.Note < D.severity_order D.Warning
    && D.severity_order D.Warning < D.severity_order D.Error)

(* --- determinism --- *)

let test_rule_order_irrelevant () =
  let prog = Helpers.compile alias_src in
  let t = Core.Analyze.run prog in
  let a = E.run t and b = E.run ~rules:(List.rev R.all) t in
  Helpers.check_bool "reversed rule order, same findings" true
    (List.equal D.equal a b)

let report t prog fs =
  ignore t;
  Obs.Json.to_string (E.report_json ~program:prog.Ir.Prog.name ~rules:R.all fs)

let prop_jobs_invariant seed =
  let prog = Helpers.flat_of_seed ~n:30 seed in
  let t = Core.Analyze.run prog in
  let seq = E.run t in
  let par = E.run ~pool:(Lazy.force pool4) t in
  report t prog seq = report t prog par

(* --- dynamic cross-check: a pure-flagged callee can only be observed
   modifying the by-reference actuals of the site --- *)

let prop_pure_matches_interp seed =
  let prog = Helpers.flat_of_seed ~n:20 seed in
  let t = Core.Analyze.run prog in
  let pure = R.pure_procs t in
  let o = Interp.run ~fuel:100_000 prog in
  let ok = ref true in
  Ir.Prog.iter_sites prog (fun s ->
      if
        o.Interp.calls_executed.(s.Ir.Prog.sid) > 0
        && List.mem s.Ir.Prog.callee pure
      then begin
        let actuals = Ir.Info.fresh t.Core.Analyze.info in
        Array.iter
          (function
            | Ir.Prog.Arg_ref lv ->
              Bitvec.set actuals (Ir.Expr.lvalue_base lv)
            | Ir.Prog.Arg_value _ -> ())
          s.Ir.Prog.args;
        (* A write through a by-reference formal surfaces in the caller
           under every §5 alias of the actual as well (the interpreter
           names the location at each binding level), so the allowance
           is the alias closure — the same closure MOD(s) applies to
           DMOD(s). *)
        let allowed =
          Core.Alias.close t.Core.Analyze.alias ~proc:s.Ir.Prog.caller actuals
        in
        if not (Bitvec.subset (Interp.observed_mod o s.Ir.Prog.sid) allowed)
        then ok := false
      end);
  !ok

(* --- incremental deltas --- *)

let test_incremental_delta () =
  let prog =
    Helpers.compile
      {|program p;
var g, h : int;

procedure q(var x : int);
begin
  x := x + 1;
end;

begin
  g := 0;
  call q(g);
  h := g;
end.|}
  in
  let eng = Incremental.Engine.create prog in
  let before = Incremental.Engine.lint eng in
  Helpers.check_bool "q pure before the edit" true (has "SFX003" "q" before);
  Helpers.check_bool "h write-only throughout" true (has "SFX002" "p" before);
  Helpers.check_bool "second query hits the cache" true
    (before == Incremental.Engine.lint eng);
  let gid = Helpers.var_id prog "g" and qid = Helpers.proc_id prog "q" in
  let (_ : Incremental.Engine.outcome) =
    Incremental.Engine.apply eng
      (Incremental.Edit.Add_assign
         { proc = qid; target = gid; value = Ir.Expr.Int 1 })
  in
  let after = Incremental.Engine.lint eng in
  Helpers.check_bool "q no longer pure" false (has "SFX003" "q" after);
  Helpers.check_bool "h still write-only" true (has "SFX002" "p" after);
  let added, removed = E.delta ~before ~after in
  Helpers.check_int "nothing added" 0 (List.length added);
  Helpers.check_bool "purity note removed" true
    (List.exists (fun d -> d.D.code = "SFX003" && d.D.scope = "q") removed);
  (* The incremental path and a batch run on the edited program agree
     finding for finding. *)
  let batch = E.run (Core.Analyze.run (Incremental.Engine.prog eng)) in
  Helpers.check_bool "incremental = batch" true
    (List.equal D.equal after batch)

let prop_incremental_matches_batch seed =
  let prog = Helpers.flat_of_seed ~n:12 seed in
  let eng = Incremental.Engine.create prog in
  let steps =
    Workload.Edits.gen ~rand:(Random.State.make [| seed; 0x11 |]) ~steps:3 prog
  in
  List.iter
    (fun (edit, _) ->
      let (_ : Incremental.Engine.outcome) =
        Incremental.Engine.apply eng edit
      in
      ())
    steps;
  let incr = Incremental.Engine.lint eng in
  let batch = E.run (Core.Analyze.run (Incremental.Engine.prog eng)) in
  List.equal D.equal incr batch

let () =
  Helpers.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "unused formal (SFX001)" `Quick test_unused_formal;
          Alcotest.test_case "write-only global (SFX002)" `Quick
            test_write_only_global;
          Alcotest.test_case "pure proc, I/O masked (SFX003)" `Quick
            test_pure_proc_io_masked;
          Alcotest.test_case "alias inflation (SFX004)" `Quick
            test_alias_inflation;
          Alcotest.test_case "aliased actuals (SFX005)" `Quick
            test_aliased_actuals;
          Alcotest.test_case "loop verdicts (SFX006/7)" `Quick
            test_loop_parallel;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "source locations" `Quick test_locations;
          Alcotest.test_case "JSON key set" `Quick test_json_keys;
          Alcotest.test_case "severity encoding" `Quick
            test_severity_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "rule order irrelevant" `Quick
            test_rule_order_irrelevant;
          Helpers.qtest ~count:25 "jobs 4 = jobs 1 (bit-identical JSON)"
            Helpers.arb_flat_prog prop_jobs_invariant;
        ] );
      ( "cross-checks",
        [
          Helpers.qtest ~count:20 "pure procs under the interpreter"
            Helpers.arb_flat_prog prop_pure_matches_interp;
          Alcotest.test_case "incremental delta" `Quick
            test_incremental_delta;
          Helpers.qtest ~count:15 "incremental lint = batch lint"
            Helpers.arb_flat_prog prop_incremental_matches_batch;
        ] );
    ]
