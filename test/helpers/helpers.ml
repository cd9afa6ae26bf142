(* Shared test utilities: compilation shorthands, set comparisons by
   variable name, program arbitraries for qcheck, and the analysis
   pipeline broken into reusable pieces. *)

let compile src = Frontend.Sema.compile_exn ~file:"<test>" src

let compile_errors src =
  match Frontend.Sema.compile ~file:"<test>" src with
  | Ok _ -> []
  | Error errs -> List.map (fun e -> e.Frontend.Sema.msg) errs

(* Variable lookup by qualified name: "x" for a global, "p.x" for p's
   variable as p's body sees it. *)
let var_id prog qname =
  match String.index_opt qname '.' with
  | None -> (
    match Ir.Prog.find_var prog ~proc:prog.Ir.Prog.main qname with
    | Some v -> v.Ir.Prog.vid
    | None -> Alcotest.failf "no such global: %s" qname)
  | Some i ->
    let pname = String.sub qname 0 i in
    let vname = String.sub qname (i + 1) (String.length qname - i - 1) in
    let proc =
      match Ir.Prog.find_proc prog pname with
      | Some p -> p.Ir.Prog.pid
      | None -> Alcotest.failf "no such procedure: %s" pname
    in
    (match Ir.Prog.find_var prog ~proc vname with
    | Some v -> v.Ir.Prog.vid
    | None -> Alcotest.failf "no such variable: %s" qname)

let proc_id prog name =
  match Ir.Prog.find_proc prog name with
  | Some p -> p.Ir.Prog.pid
  | None -> Alcotest.failf "no such procedure: %s" name

(* Compare a bit vector against an expected list of qualified names. *)
let check_var_set prog msg expected actual =
  let expected_ids = List.sort_uniq compare (List.map (var_id prog) expected) in
  let actual_ids = Bitvec.to_list actual in
  if expected_ids <> actual_ids then
    Alcotest.failf "%s:@ expected %a,@ got %a" msg
      (Fmt.Dump.list Fmt.string)
      expected (Ir.Pp.pp_var_set prog) actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The pipeline, piecewise, so tests can interrogate intermediates. *)
type pipeline = {
  prog : Ir.Prog.t;
  info : Ir.Info.t;
  call : Callgraph.Call.t;
  binding : Callgraph.Binding.t;
  imod : Bitvec.t array;
  rmod : Core.Rmod.result;
  imod_plus : Bitvec.t array;
}

let pipeline prog =
  let info = Ir.Info.make prog in
  let call = Callgraph.Call.build prog in
  let binding = Callgraph.Binding.build info in
  let imod = Frontend.Local.imod info in
  let rmod = Core.Rmod.solve binding ~imod in
  let imod_plus = Core.Imod_plus.compute info ~rmod ~imod in
  { prog; info; call; binding; imod; rmod; imod_plus }

(* qcheck arbitraries: random programs indexed by seed, so failures
   reproduce from the printed seed. *)
let arb_flat_prog =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "flat seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

let flat_of_seed ?(n = 40) seed = Workload.Families.fortran_style ~seed ~n

let arb_nested_prog =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "nested seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

let nested_of_seed ?(n = 40) ?(depth = 4) seed =
  Workload.Families.pascal_style ~seed ~n ~depth

(* A seeded random pointer program.  The prologue aims every pointer at
   a distinct global, so each later statement is valid whatever prefix
   the generator picked: pointer assignments only replace one valid
   pointer value with another ([&g], a copy, [new int]), so no
   dereference ever sees an uninitialized cell.  [own] takes the
   addresses of its own locals and writes them through [lp], through
   [gq] from inside [poke], through dereference actuals and from
   deeper activations of itself; it aims [gq] back at a global before
   it returns, so no pointer outlives the frame it names.  Note the
   space after the paren in deref call actuals — paren-star opens a
   MiniProc comment (LANGUAGE.md). *)
let ptr_src_of_seed seed =
  let st = Random.State.make [| seed; 0x9e37 |] in
  let n_stmts = 6 + Random.State.int st 20 in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "program gen%d;\n" seed;
  add "var g0, g1, g2, g3 : int;\n";
  add "var p0, p1, p2, p3, gq : ptr of int;\n";
  add "var pp : ptr of ptr of int;\n";
  add "\nprocedure bump(var c : int);\nbegin\n  c := c + 1;\nend;\n";
  add "\nprocedure mix(var c : int; var d : int);\nbegin\n  c := c + d;\nend;\n";
  add "\nprocedure poke();\nbegin\n  *gq := *gq + 1;\nend;\n";
  add "\nprocedure own(var c : int; n : int);\nvar x, y : int;\nvar lp : ptr of int;\n";
  add "begin\n  x := c;\n  lp := &x;\n";
  for _ = 1 to 2 + Random.State.int st 5 do
    match Random.State.int st 8 with
    | 0 -> add "  lp := &x;\n"
    | 1 -> add "  lp := &n;\n"
    | 2 -> add "  gq := lp;\n"
    | 3 -> add "  call poke();\n"
    | 4 -> add "  call bump( *lp);\n"
    | 5 -> add "  call mix( *lp, y);\n"
    | 6 -> add "  *lp := n;\n"
    | _ -> add "  if n > 0 then\n    call own(y, n - 1);\n  end;\n"
  done;
  add "  gq := &g0;\n  c := x + y + n;\nend;\n";
  add "\nbegin\n";
  for i = 0 to 3 do
    add "  p%d := &g%d;\n" i i
  done;
  add "  pp := &p0;\n  gq := &g0;\n";
  for _ = 1 to n_stmts do
    let p = Random.State.int st 4 and g = Random.State.int st 4 in
    match Random.State.int st 11 with
    | 0 -> add "  p%d := &g%d;\n" p g
    | 1 -> add "  p%d := p%d;\n" p (Random.State.int st 4)
    | 2 -> add "  p%d := new int;\n" p
    | 3 -> add "  *p%d := %d;\n" p (Random.State.int st 100)
    | 4 -> add "  g%d := *p%d;\n" g p
    | 5 -> add "  call bump( *p%d);\n" p
    | 6 -> add "  call mix( *p%d, g%d);\n" p g
    | 7 -> add "  pp := &p%d;\n" p
    | 8 -> add "  **pp := %d;\n" (Random.State.int st 100)
    | 9 -> add "  call own(g%d, %d);\n" g (Random.State.int st 4)
    | _ -> add "  g%d := g%d + %d;\n" g g (Random.State.int st 10)
  done;
  add "  write g0 + g1 + g2 + g3;\nend.\n";
  Buffer.contents buf

let ptr_prog_of_seed seed = compile (ptr_src_of_seed seed)

let arb_ptr_prog =
  QCheck.make
    ~print:(fun seed ->
      Printf.sprintf "pointer seed %d:\n%s" seed (ptr_src_of_seed seed))
    QCheck.Gen.(0 -- 10_000)

(* Token soup: structurally plausible fragments glued randomly — much
   better at reaching deep parser states than raw bytes.  Every fragment
   is a whole token, so the soup never holds a lexical error. *)
let soup_fragments =
  [|
    "program"; "procedure"; "var"; "begin"; "end"; "if"; "then"; "else"; "while";
    "do"; "for"; "to"; "call"; "read"; "write"; "skip"; "int"; "bool"; "array";
    "of"; "and"; "or"; "not"; "true"; "false"; ";"; ":"; ","; "."; "("; ")"; "[";
    "]"; ":="; "+"; "-"; "*"; "/"; "%"; "<"; "<="; ">"; ">="; "=="; "!="; "x";
    "y"; "p"; "q"; "0"; "1"; "42"; "\n"; " ";
  |]

let token_soup_gen =
  QCheck.Gen.(
    map
      (fun picks ->
        String.concat " "
          (List.map (fun i -> soup_fragments.(i mod Array.length soup_fragments)) picks))
      (list_size (0 -- 120) (0 -- 1000)))

let arb_token_soup =
  QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) token_soup_gen

(* Replayable property tests: the generator seed comes from the
   QCHECK_SEED environment variable when set, and is printed on any
   failure so `QCHECK_SEED=n dune runtest` reproduces the exact run. *)
let qcheck_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> (
      match int_of_string_opt s with
      | Some i -> i
      | None -> Fmt.failwith "QCHECK_SEED must be an integer, got %S" s)
    | None ->
      Random.self_init ();
      Random.int 1_000_000_000)

let qtest ?(count = 100) name arb prop =
  let seed = Lazy.force qcheck_seed in
  let announced = ref false in
  let announce () =
    if not !announced then (
      announced := true;
      Printf.eprintf "[qcheck] %s failed; replay with QCHECK_SEED=%d\n%!" name
        seed)
  in
  let prop x =
    match prop x with
    | true -> true
    | false ->
      announce ();
      false
    | exception e ->
      announce ();
      raise e
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~count ~name arb prop)

(* Directed tests that need randomness must thread the same replayable
   seed as the property tests: a fixed literal state would silently opt
   out of QCHECK_SEED.  [salt] decorrelates streams within one run. *)
let seeded_state ~salt = Random.State.make [| Lazy.force qcheck_seed; salt |]

(* A directed test case drawing from a seeded state; any failure
   (alcotest check or stray exception) reports the effective seed so
   `QCHECK_SEED=n dune runtest` reproduces it exactly. *)
let seeded_case name speed f =
  Alcotest.test_case name speed (fun () ->
      let salt = Hashtbl.hash name in
      try f (seeded_state ~salt)
      with e ->
        Printf.eprintf "[seeded] %s failed; replay with QCHECK_SEED=%d\n%!" name
          (Lazy.force qcheck_seed);
        raise e)

(* Whether some call site calls its own caller: the [v -> v] edge whose
   fold Figure 2 and the multi-level pass treat differently. *)
let self_recursive prog =
  let found = ref false in
  Ir.Prog.iter_sites prog (fun s ->
      if s.Ir.Prog.caller = s.Ir.Prog.callee then found := true);
  !found

let gmod_arrays_equal a b = Array.for_all2 Bitvec.equal a b

(* The site MOD/USE oracle: run the program under the tracing
   interpreter and list every executed call site whose observed
   effect escapes the analysis, [observed_mod(s) ⊆ MOD(s)] and
   [observed_use(s) ⊆ USE(s)]; truncated runs count too, since the
   events already recorded really happened. *)
let unsound_sites ?(fuel = 10_000) t prog =
  let o = Interp.run ~fuel ~max_depth:256 prog in
  let bad = ref [] in
  Ir.Prog.iter_sites prog (fun s ->
      let sid = s.Ir.Prog.sid in
      if o.Interp.calls_executed.(sid) > 0 then begin
        if not (Bitvec.subset (Interp.observed_mod o sid) (Core.Analyze.mod_of_site t sid))
        then bad := (sid, "MOD") :: !bad;
        if not (Bitvec.subset (Interp.observed_use o sid) (Core.Analyze.use_of_site t sid))
        then bad := (sid, "USE") :: !bad
      end);
  !bad

(* Three programs where a pointer names a local outside its own
   activation: through a global pointer two calls down (flat), the
   same with the middle procedure nested in the owner (the §4
   multi-level path), and from a deeper activation of a recursive
   owner. *)
let escape_srcs =
  let flat nested =
    Printf.sprintf
      {|program escape;
var g : int;
var gp : ptr of int;
procedure b();
begin
  *gp := 1;
end;
%s
procedure a();
var x : int;
%s
begin
  gp := &x;
  call c();
  write x;
  gp := &g;
end;
begin
  gp := &g;
  call a();
end.|}
      (if nested then "" else "procedure c();\nbegin\n  call b();\nend;")
      (if nested then "  procedure c();\n  begin\n    call b();\n  end;" else "")
  in
  [
    ("flat", flat false);
    ("nested", flat true);
    ( "recursive",
      {|program escrec;
var g : int;
var gp : ptr of int;
procedure r(n : int);
var x : int;
begin
  if n > 0 then
    gp := &x;
    call r(n - 1);
    write x;
  else
    *gp := 5;
  end;
end;
begin
  gp := &g;
  call r(2);
end.|}
    );
  ]

(* A pair that enters a procedure clean and turns tainted only rounds
   later: main's direct call introduces <x, y> in [a] clean, the
   pointer-carried pair reaches [a] through [d] a round after the site
   in [a] has already passed <x, y> on to [b].  The taint must still
   reach [b]. *)
let late_taint_src =
  {|program late;
var g : int;
var p : ptr of int;
procedure b(var u : int; var v : int);
begin
  u := 1;
end;
procedure a(var x : int; var y : int);
begin
  call b(x, y);
end;
procedure d(var s : int; var t : int);
begin
  call a(s, t);
end;
begin
  p := &g;
  call a(g, g);
  call d( *p, g);
end.|}

(* The §5 identity corpus: pointer families, the flat, DAG and nested
   families at two seeds, every sample program, [late_taint_src] and
   50 generated programs of nesting depth 1-3.  The alias identity
   golden and the per-site summary golden digest every output on it. *)
let alias_corpus =
  let fam name f = (name, f) in
  let file name =
    ( name,
      fun () ->
        let path = Filename.concat "../programs" name in
        Frontend.Sema.compile_exn ~file:path
          (In_channel.with_open_bin path In_channel.input_all) )
  in
  let module F = Workload.Families in
  List.concat_map
    (fun n ->
      [
        fam (Printf.sprintf "ptr_chain %d" n) (fun () -> F.ptr_chain n);
        fam (Printf.sprintf "ptr_funnel %d" n) (fun () -> F.ptr_funnel n);
        fam (Printf.sprintf "ptr_heap %d" n) (fun () -> F.ptr_heap n);
      ])
    [ 2; 16; 64 ]
  @ List.concat_map
      (fun seed ->
        [
          fam (Printf.sprintf "fortran_style s%d" seed) (fun () ->
              F.fortran_style ~seed ~n:64);
          fam (Printf.sprintf "fortran_fixed s%d" seed) (fun () ->
              F.fortran_fixed ~seed ~n:64);
          fam (Printf.sprintf "dag_style s%d" seed) (fun () -> F.dag_style ~seed ~n:64);
          fam (Printf.sprintf "pascal_style s%d" seed) (fun () ->
              F.pascal_style ~seed ~n:64 ~depth:4);
        ])
      [ 1; 2 ]
  @ List.map file
      [
        "bank.mp"; "dataflow_demo.mp"; "lint_demo.mp"; "mustmod_demo.mp";
        "pipeline.mp"; "pointers.mp"; "ptr_lint.mp"; "report.mp"; "stencil.mp";
      ]
  @ [ fam "late taint" (fun () -> compile late_taint_src) ]
  @ List.init 50 (fun seed ->
        fam (Printf.sprintf "gen %d" seed) (fun () ->
            Workload.Gen.generate
              (Random.State.make [| seed; 0xa11a5 |])
              { Workload.Gen.default with n_procs = 24; max_depth = 1 + (seed mod 3) }))

(* The MUSTMOD golden corpus: nested families across seeds and depths,
   60 generated programs of nesting depth 1-5, the flat, DAG and nested
   families at two seeds, the pointer families and every sample program.
   The MUSTMOD digest golden and the explain reason golden digest every
   output on it.  A function: listing the sample programs reads the
   test directory. *)
let must_corpus () =
  let fam name f = (name, f) in
  let module F = Workload.Families in
  let file name =
    ( name,
      fun () ->
        let path = Filename.concat "../programs" name in
        Frontend.Sema.compile_exn ~file:path
          (In_channel.with_open_bin path In_channel.input_all) )
  in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun depth ->
          List.map
            (fun n ->
              fam
                (Printf.sprintf "pascal_style s%d d%d n%d" seed depth n)
                (fun () -> F.pascal_style ~seed ~n ~depth))
            [ 16; 64; 256 ])
        [ 2; 3; 4; 6 ])
    [ 1; 2; 3; 4; 5 ]
  @ List.init 60 (fun seed ->
        fam (Printf.sprintf "gen %d" seed) (fun () ->
            Workload.Gen.generate
              (Random.State.make [| seed; 0x3057 |])
              { Workload.Gen.default with n_procs = 24; max_depth = 1 + (seed mod 5) }))
  @ [ fam "nested_textbook" F.nested_textbook ]
  @ List.concat_map
      (fun seed ->
        [
          fam (Printf.sprintf "fortran_style s%d" seed) (fun () ->
              F.fortran_style ~seed ~n:64);
          fam (Printf.sprintf "fortran_fixed s%d" seed) (fun () ->
              F.fortran_fixed ~seed ~n:64);
          fam (Printf.sprintf "dag_style s%d" seed) (fun () -> F.dag_style ~seed ~n:64);
          fam (Printf.sprintf "pascal_style s%d" seed) (fun () ->
              F.pascal_style ~seed ~n:64 ~depth:4);
        ])
      [ 1; 2 ]
  @ List.concat_map
      (fun n ->
        [
          fam (Printf.sprintf "ptr_chain %d" n) (fun () -> F.ptr_chain n);
          fam (Printf.sprintf "ptr_funnel %d" n) (fun () -> F.ptr_funnel n);
        ])
      [ 2; 16; 64 ]
  @ List.map file
      (Sys.readdir "../programs" |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".mp")
      |> List.sort compare)

let run name suites = Alcotest.run ~verbose:false name suites
