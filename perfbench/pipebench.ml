(* The pipeline benchmark: one executable that drives the four user
   paths of the toolchain -- [sidefx analyze], [sidefx dataflow],
   [sidefx lint] and the analysis server -- from generated source text
   through the public entry points, checks every output against
   independent oracles outside the timed region, and prints one JSON
   result line.  perfbench/README.md defines the workloads and every
   metric.  Run it from the repository root:

     dune exec --root . ./perfbench/pipebench.exe -- \
       --workload analyze|dataflow|lint|serve --seed N --seconds S --trace 0|1

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer split taken from Obs spans.
   Earlier stdout lines are JSON objects too: one {"row": ..} per
   program of a batch workload and one {"info": ..} with sample
   counts. *)

module J = Obs.Json
module A = Core.Analyze
module F = Workload.Families

let arg name default =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let workload = arg "--workload" ""
let seed = int_of_string (arg "--seed" "1")
let seconds = float_of_string (arg "--seconds" "10")
let traced = arg "--trace" "0" = "1"

(* CLOCK_MONOTONIC wall time.  Obs.Clock defaults to Sys.time, which is
   processor time summed over domains, so spans are re-clocked with
   this too (see the entry point at the bottom). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- calibration ---

   On a host whose cores are shared with other tenants, speed shifts by
   up to half for seconds at a time, alike for every process.  Each
   timed sample is therefore paired with a fixed calibration kernel run
   just before it and reported as [raw * factor], where [factor] is
   [kernel_ref_s] over the kernel's time: the time the sample would
   have taken on a host where the kernel takes exactly [kernel_ref_s].
   The kernel is deterministic hash-table updates and lookups with the
   small allocations they make, close to what the analyses do; best of
   three damps its own jitter.  A kernel of random reads over a 512 KiB
   array sped up about twice as much as the analyses when the host did,
   and so over-corrected. *)
let kernel_ref_s = 1e-3

let kernel () =
  let h = Hashtbl.create 4096 in
  for i = 1 to 20_000 do
    Hashtbl.replace h (i land 4095) i;
    ignore (Sys.opaque_identity (Hashtbl.find_opt h ((i * 7) land 4095)))
  done

let calibrate () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    kernel ();
    best := Float.min !best (now () -. t0)
  done;
  kernel_ref_s /. !best

(* --- statistics --- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile q xs =
  if xs = [||] then nan
  else
    let a = sorted xs in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  if xs = [||] then nan
  else
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = Array.fold_left ( +. ) 0. xs
let ms x = x *. 1e3

(* A growable float buffer outside the OCaml heap, so per-query samples
   neither allocate inside the timed region nor count in peak_heap_mb. *)
module Samples = struct
  module B = Bigarray.Array1

  type t = { mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) B.t; mutable n : int }

  let alloc n = B.create Bigarray.float64 Bigarray.c_layout n
  let create () = { a = alloc 4096; n = 0 }

  let add t x =
    if t.n = B.dim t.a then begin
      let b = alloc (2 * t.n) in
      B.blit t.a (B.sub b 0 t.n);
      t.a <- b
    end;
    t.a.{t.n} <- x;
    t.n <- t.n + 1

  (* Multiply the samples added since [from] by [f]. *)
  let scale_from t ~from f =
    for i = from to t.n - 1 do
      t.a.{i} <- t.a.{i} *. f
    done

  let to_array t = Array.init t.n (fun i -> t.a.{i})
end

(* --- correctness accounting: every operation and every oracle check
   is one attempt; error_rate = failed / attempted --- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "pipebench: check failed: %s\n%!" what
  end

let attempt what f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception e ->
    incr failed;
    Printf.eprintf "pipebench: %s raised %s\n%!" what (Printexc.to_string e);
    None

(* --- corpus --- *)

type program = { name : string; source : string; procs : int; sites : int }

let fixed n = (Printf.sprintf "fortran_fixed-%d" n, fun seed -> F.fortran_fixed ~seed ~n)
let style n = (Printf.sprintf "fortran_style-%d" n, fun seed -> F.fortran_style ~seed ~n)
let dag n = (Printf.sprintf "dag_style-%d" n, fun seed -> F.dag_style ~seed ~n)

let pascal n depth =
  (Printf.sprintf "pascal_style-%d-d%d" n depth, fun seed -> F.pascal_style ~seed ~n ~depth)

let ptr_chain n = (Printf.sprintf "ptr_chain-%d" n, fun _ -> F.ptr_chain n)
let ptr_funnel n = (Printf.sprintf "ptr_funnel-%d" n, fun _ -> F.ptr_funnel n)

(* Seeded families come [k] programs at a time, each with its own seed:
   the cost of one generated program swings with its seed, and a run
   must not. *)
let times k spec = List.init k (fun _ -> spec)

let specs = function
  | "analyze" ->
    times 2 (fixed 1024) @ times 2 (style 256) @ times 3 (pascal 128 4)
    @ [ ptr_chain 200; ptr_funnel 400 ]
  | "dataflow" -> times 3 (fixed 512) @ times 3 (dag 256)
  | "lint" -> times 6 (fixed 64) @ times 6 (style 64)
  | "serve" -> times 8 (dag 32)
  | w -> invalid_arg ("unknown workload: " ^ w)

(* Ir.Pp prints a dereference that follows an opening parenthesis as
   "(*p" -- a leading dereference actual such as "call q(*p)", or a
   parenthesised operand -- and the lexer reads "(*" as a comment
   opener, so ptr_chain, ptr_funnel and ptr_heap do not round-trip
   through the front end.  docs/LANGUAGE.md asks for "( *p)".  Split
   every "(*" here; once the printer emits the space no "(*" is left
   and this is the identity. *)
let render prog =
  let s = Ir.Pp.to_string prog in
  let b = Buffer.create (String.length s + 64) in
  String.iteri
    (fun i c ->
      Buffer.add_char b c;
      if c = '(' && i + 1 < String.length s && s.[i + 1] = '*' then Buffer.add_char b ' ')
    s;
  Buffer.contents b

(* Program [i] of the corpus gets its own seed, so repeated families
   (two fortran_fixed programs in [lint]) differ.  The serve corpus is
   eight copies of one program, the same for every --seed, which drives
   only the traffic: with eight different programs the edit latencies
   clustered at eight relint costs, and edit_p90_ms jumped between
   clusters as the traffic changed. *)
let make_corpus () =
  List.mapi
    (fun i (label, gen) ->
      let pseed = if workload = "serve" then 1009 else (seed * 1009) + i in
      let prog = gen pseed in
      {
        name = Printf.sprintf "%s-s%d-%d" label pseed i;
        source = render prog;
        procs = Ir.Prog.n_procs prog;
        sites = Ir.Prog.n_sites prog;
      })
    (specs workload)

(* Set-up runs [setup_reps] times; setup_s is the median. *)
let setup_reps = 9

let repeat_setup ~setup ~teardown =
  let rec go k times =
    let f = calibrate () in
    let t0 = now () in
    let x = setup () in
    let times = ((now () -. t0) *. f) :: times in
    if k <= 1 then (x, median (Array.of_list times))
    else begin
      teardown x;
      go (k - 1) times
    end
  in
  go setup_reps []

(* --- layers: every span the library opens, plus the bench-side spans
   below, is charged to one layer; self time is the span minus its
   child spans --- *)

let layers =
  [
    "frontend"; "ir.info"; "ptsto"; "callgraph"; "local"; "core.rmod";
    "core.imod_plus"; "core.gmod"; "core.alias"; "core.mustmod"; "core.summary";
    "dataflow"; "lint"; "sections"; "incremental"; "serve"; "other";
  ]

let layer_of name =
  let pre p = String.starts_with ~prefix:p name in
  if name = "bench.compile" || pre "frontend" then "frontend"
  else if name = "info" then "ir.info"
  else if pre "ptsto" then "ptsto"
  else if pre "callgraph" then "callgraph"
  else if pre "local" then "local"
  else if pre "rmod" || pre "ruse" then "core.rmod"
  else if pre "imod_plus" || pre "iuse_plus" then "core.imod_plus"
  else if pre "gmod" || pre "guse" then "core.gmod"
  else if pre "alias" then "core.alias"
  else if pre "mustmod" then "core.mustmod"
  else if name = "summary" || name = "bench.queries" then "core.summary"
  else if pre "dataflow" || name = "bench.dataflow" then "dataflow"
  else if name = "lint.sections" || pre "sections" then "sections"
  else if pre "lint" || name = "bench.lint" then "lint"
  else if pre "incremental" then "incremental"
  else if pre "serve" then "serve"
  else "other"

type cost = { mutable self_s : float; mutable words : int; mutable vops : int }

let cost_table () =
  let t = Hashtbl.create 32 in
  List.iter (fun l -> Hashtbl.replace t l { self_s = 0.; words = 0; vops = 0 }) layers;
  t

(* Charge a span tree to [tables], times multiplied by the calibration
   factor [f]. *)
let rec attribute tables f (sp : Obs.Span.t) =
  let kids = sp.Obs.Span.children in
  let self g = g sp - List.fold_left (fun acc c -> acc + g c) 0 kids in
  let dt =
    sp.Obs.Span.elapsed
    -. List.fold_left (fun acc c -> acc +. c.Obs.Span.elapsed) 0. kids
  in
  let words = self (fun s -> Obs.Span.metric s "bitvec.word_ops") in
  let vops = self (fun s -> Obs.Span.metric s "bitvec.vector_ops") in
  List.iter
    (fun t ->
      let c = Hashtbl.find t (layer_of sp.Obs.Span.name) in
      c.self_s <- c.self_s +. (dt *. f);
      c.words <- c.words + words;
      c.vops <- c.vops + vops)
    tables;
  List.iter (attribute tables f) kids

(* --- output --- *)

let emit_line j = print_endline (J.to_string j)
let info fields =
  emit_line (J.Obj [ ("info", J.Obj (("workload", J.String workload) :: fields)) ])

let finish metrics =
  List.iter
    (fun (name, _, v) -> check (name ^ " is a finite number") (Float.is_finite v))
    metrics;
  emit_line
    (J.Obj
       [
         ("correct", J.Bool (!failed = 0));
         ("attempted", J.Int !attempted);
         ("failed", J.Int !failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) ->
                  let v = if Float.is_finite v then v else 0. in
                  (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
                metrics) );
       ])

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.
let peak_heap_mb () = mib_of_words (Gc.quick_stat ()).Gc.top_heap_words

(* Per-layer metrics of a traced run, normalised per pass (batch) or per
   round (serve).  Span-derived figures cover the [traced] passes;
   [counters] (registry deltas) and [majors] cover all [passes], traced
   or not, since tracing changes no count. *)
let layer_metrics table ~traced ~passes ~counters ~majors ~overhead ~wall =
  let per x = x /. float_of_int traced in
  let per_pass x = x /. float_of_int passes in
  let counter name =
    per_pass (float_of_int (try List.assoc name counters with Not_found -> 0))
  in
  let findings =
    List.fold_left
      (fun acc (n, v) ->
        if String.starts_with ~prefix:"lint.findings" n then acc + v else acc)
      0 counters
  in
  let edits = counter "incremental.edits" in
  let fallbacks = counter "incremental.full_fallbacks" in
  List.concat_map
    (fun l ->
      let c = Hashtbl.find table l in
      [
        (l ^ ".self_s", "s", per c.self_s);
        (l ^ ".word_ops", "count", per (float_of_int c.words));
      ])
    layers
  @ [
      ( "core.gmod.vector_ops", "count",
        per (float_of_int (Hashtbl.find table "core.gmod").vops) );
      ("core.rmod.steps", "count", counter "rmod.steps");
      ("core.mustmod.rounds", "count", counter "mustmod.rounds");
      ("dataflow.procs_solved", "count", counter "dataflow.procs_solved");
      ("dataflow.reach_passes", "count", counter "dataflow.reach_passes");
      ("lint.findings", "count", per_pass (float_of_int findings));
      ("incremental.procs_resolved", "count", counter "incremental.procs_resolved");
      ("incremental.full_fallbacks", "count", fallbacks);
      ( "incremental.fallback_ratio", "ratio",
        if edits > 0. then fallbacks /. edits else 0. );
      ("gc.major_collections", "count", per_pass (float_of_int majors));
      ("trace.wall_s", "s", per wall);
      ("trace.overhead_s", "s", overhead);
      ("error_rate", "ratio", float_of_int !failed /. float_of_int (max 1 !attempted));
    ]

(* Run [pass] at least [min_passes] times, and then while another pass
   would end less than half a pass after [budget] seconds; collect what
   each pass returns. *)
let timed_passes ~budget ~min_passes pass =
  let t_end = now () +. budget in
  let out = ref [] and last = ref 0. in
  while List.length !out < min_passes || now () +. (!last /. 2.) < t_end do
    let t0 = now () in
    out := pass () :: !out;
    last := now () -. t0
  done;
  Array.of_list (List.rev !out)

(* The traced run alternates untraced and traced passes, so both see the
   same host; returns what each kind of pass returned, the registry
   deltas and the major collections over all of them. *)
let alternate ~budget pass =
  let snap = Obs.Metric.snapshot () in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let k = ref 0 in
  let both =
    timed_passes ~budget ~min_passes:2 (fun () ->
        let trace = !k mod 2 = 1 in
        incr k;
        (trace, pass ~trace))
  in
  let pick t =
    Array.of_list
      (List.filter_map (fun (t', w) -> if t = t' then Some w else None) (Array.to_list both))
  in
  ( pick false,
    pick true,
    Obs.Metric.delta ~since:snap,
    (Gc.quick_stat ()).Gc.major_collections - gc0 )

(* --- batch workloads: analyze, dataflow, lint --- *)

let span = Obs.Span.with_

let compile p =
  match Frontend.Sema.compile_with_locs ~file:p.name p.source with
  | Ok r -> r
  | Error _ -> failwith (p.name ^ ": generated source does not compile")

let mix h x = (h * 65599) lxor x

let names prog vids = List.map (Ir.Pp.var_name prog) vids

(* One client query: its latency is recorded, its answer folded into
   the pass fingerprint. *)
let ask qs h f =
  let t0 = Monotonic_clock.now () in
  let answer : string list = f () in
  let t1 = Monotonic_clock.now () in
  Samples.add qs (Int64.to_float (Int64.sub t1 t0) *. 1e-9);
  List.fold_left (fun h s -> mix h (Hashtbl.hash s)) (mix h (List.length answer)) answer

(* The summary queries a client asks of a finished analysis -- GMOD,
   GUSE, RMOD, RUSE and alias pairs per procedure, MOD and USE per call
   site -- each answered as the variable names [sidefx analyze]
   prints. *)
let queries qs a =
  let prog = a.A.prog in
  let set bv () = names prog (Bitvec.to_list bv) in
  let h = ref 0 in
  let q f = h := ask qs !h f in
  Ir.Prog.iter_procs prog (fun pr ->
      let pid = pr.Ir.Prog.pid in
      q (set (A.gmod_of a pid));
      q (set (A.guse_of a pid));
      q (fun () -> names prog (Core.Rmod.rmod_of_proc a.A.rmod pid));
      q (fun () -> names prog (Core.Rmod.rmod_of_proc a.A.ruse pid));
      q (fun () ->
          List.map
            (fun (x, y) -> Ir.Pp.var_name prog x ^ "~" ^ Ir.Pp.var_name prog y)
            (Core.Alias.pairs a.A.alias pid)));
  Ir.Prog.iter_sites prog (fun s ->
      let sid = s.Ir.Prog.sid in
      q (fun () -> set (A.mod_of_site a sid) ());
      q (fun () -> set (A.use_of_site a sid) ()));
  !h

type ran = {
  wall : float;  (** The whole command, source text to answers. *)
  stage : float;  (** The client stage after Analyze.run. *)
  print : int;  (** Fingerprint of every output of the command. *)
  pairs : int;
}

let solved = Obs.Metric.counter "dataflow.procs_solved"

(* One program through the workload's command path. *)
let command qs p =
  let t0 = now () in
  let prog, locs = span "bench.compile" (fun () -> compile p) in
  let a = span "bench.analyze" (fun () -> A.run ~jobs:1 prog) in
  let t1 = now () in
  let stage_print =
    match workload with
    | "dataflow" ->
      let before = Obs.Metric.value solved in
      span "bench.dataflow" (fun () ->
          Dataflow.Driver.solve_all (Dataflow.Driver.create ~locs a));
      let n = Obs.Metric.value solved - before in
      check (p.name ^ ": dataflow solved every procedure") (n = p.procs);
      n
    | "lint" ->
      let findings = span "bench.lint" (fun () -> Lint.Engine.run ~locs a) in
      List.fold_left
        (fun h d ->
          let c, s, m = Lint.Diagnostic.key d in
          mix (mix (mix h (Hashtbl.hash c)) (Hashtbl.hash s)) (Hashtbl.hash m))
        (List.length findings) findings
    | _ -> 0
  in
  let t2 = now () in
  let qprint = span "bench.queries" (fun () -> queries qs a) in
  let t3 = now () in
  {
    wall = t3 -. t0;
    stage = (if workload = "analyze" then t3 -. t2 else t2 -. t1);
    print = mix stage_print qprint;
    pairs = Core.Alias.total_pairs a.A.alias;
  }

let arrays_equal a b =
  Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b

(* The oracles, run once per program after the timed passes. *)
let oracle_checks p =
  match attempt (p.name ^ ": oracle analysis") (fun () -> A.run ~jobs:1 (fst (compile p))) with
  | None -> ()
  | Some a ->
    let it = Baseline.Iterative.rmod a.A.binding in
    check (p.name ^ ": RMOD = iterative") (a.A.rmod.Core.Rmod.rmod = it ~imod:a.A.imod);
    check (p.name ^ ": RUSE = iterative") (a.A.ruse.Core.Rmod.rmod = it ~imod:a.A.iuse);
    let ig = Baseline.Iterative.gmod a.A.info a.A.call in
    check (p.name ^ ": GMOD = iterative") (arrays_equal a.A.gmod (ig ~imod_plus:a.A.imod_plus));
    check (p.name ^ ": GUSE = iterative") (arrays_equal a.A.guse (ig ~imod_plus:a.A.iuse_plus));
    check (p.name ^ ": MUSTMOD within GMOD")
      (Core.Mustmod.check_subset a.A.mustmod ~gmod:a.A.gmod);
    (* Bounded fuel keeps the interpreter cheap at any size; a truncated
       run's observations are still real. *)
    let o = Interp.run ~fuel:50_000 ~max_depth:256 a.A.prog in
    let sound = ref true in
    Ir.Prog.iter_sites a.A.prog (fun s ->
        let sid = s.Ir.Prog.sid in
        if o.Interp.calls_executed.(sid) > 0 then
          sound :=
            !sound
            && Bitvec.subset (Interp.observed_mod o sid) (A.mod_of_site a sid)
            && Bitvec.subset (Interp.observed_use o sid) (A.use_of_site a sid));
    check (p.name ^ ": interpreter-observed effects within MOD/USE") !sound

let batch () =
  let corpus, setup_s = repeat_setup ~setup:make_corpus ~teardown:ignore in
  let progs = Array.of_list corpus in
  let np = Array.length progs in
  let qs = Samples.create () in
  let walls = Array.make np [] and raw_walls = Array.make np [] in
  let stages = Array.make np [] in
  let prints = Array.make np [] in
  let pairs = ref 0 in
  let per_prog = Array.init np (fun _ -> cost_table ()) in
  let total = cost_table () in
  (* One pass over the corpus; returns its calibrated wall time. *)
  let run_pass ~trace () =
    let pass_wall = ref 0. in
    Array.iteri
      (fun i p ->
        let f0 = calibrate () in
        let q0 = qs.Samples.n in
        let r =
          attempt p.name (fun () ->
              if trace then
                let r, sp = Obs.Span.collect "bench.program" (fun () -> command qs p) in
                (r, Some sp)
              else (command qs p, None))
        in
        (* Calibrating on both sides tracks a speed shift mid-command. *)
        let f = sqrt (f0 *. calibrate ()) in
        Samples.scale_from qs ~from:q0 f;
        Option.iter
          (fun (r, sp) ->
            Option.iter
              (fun sp ->
                attribute [ per_prog.(i); total ] f sp;
                pairs := !pairs + r.pairs)
              sp;
            pass_wall := !pass_wall +. (r.wall *. f);
            walls.(i) <- (r.wall *. f) :: walls.(i);
            raw_walls.(i) <- r.wall :: raw_walls.(i);
            stages.(i) <- (r.stage *. f) :: stages.(i);
            prints.(i) <- r.print :: prints.(i))
          r)
      progs;
    !pass_wall
  in
  (* Lint findings (and every other output) must be identical across
     the passes of one run, so every run makes at least two. *)
  let plain, traced_part =
    if traced then
      let plain, pw, counters, majors =
        alternate ~budget:seconds (fun ~trace -> run_pass ~trace ())
      in
      (plain, Some (pw, counters, majors))
    else (timed_passes ~budget:seconds ~min_passes:2 (run_pass ~trace:false), None)
  in
  (* Before the oracles, which are not the workload. *)
  let heap = peak_heap_mb () in
  Array.iteri
    (fun i p ->
      check (p.name ^ ": outputs identical across passes")
        (match prints.(i) with [] -> false | x :: rest -> List.for_all (( = ) x) rest))
    progs;
  Array.iter oracle_checks progs;
  Array.iteri
    (fun i p ->
      let layer_cols =
        match traced_part with
        | None -> []
        | Some (pw, _, _) ->
          List.map
            (fun l ->
              ( l ^ ".self_s",
                J.Float
                  ((Hashtbl.find per_prog.(i) l).self_s /. float_of_int (Array.length pw)) ))
            layers
      in
      emit_line
        (J.Obj
           [
             ( "row",
               J.Obj
                 ([
                    ("workload", J.String workload);
                    ("program", J.String p.name);
                    ("procs", J.Int p.procs);
                    ("sites", J.Int p.sites);
                    ("wall_s", J.Float (median (Array.of_list walls.(i))));
                    ("raw_wall_s", J.Float (median (Array.of_list raw_walls.(i))));
                  ]
                 @ layer_cols) );
           ]))
    progs;
  let qa = Samples.to_array qs in
  info
    [
      ("passes", J.Int (Array.length plain));
      ("query_samples", J.Int (Array.length qa));
      ("command_samples", J.Int (List.length (List.concat (Array.to_list walls))));
    ];
  match traced_part with
  | None ->
    (* Each program counts with its median over the passes, so one slow
       pass does not move the figure; a corpus pass is their sum.  The
       corpus mixes families whose costs differ severalfold, so the
       median across programs would jump between families as seeds
       change: the typical command is the mean of the medians. *)
    let per_program lists = Array.map (fun l -> median (Array.of_list l)) lists in
    let pass = sum (per_program walls) in
    let typical_stage = sum (per_program stages) /. float_of_int np in
    let total_procs = Array.fold_left (fun acc p -> acc + p.procs) 0 progs in
    finish
      [
        ("setup_s", "s", setup_s);
        ("procs_per_s", "procs/s", float_of_int total_procs /. pass);
        ("requests_per_s", "req/s", float_of_int np /. pass);
        ("query_p50_ms", "ms", ms (percentile 0.50 qa));
        ("query_p95_ms", "ms", ms (percentile 0.95 qa));
        ("edit_p50_ms", "ms", ms (pass /. float_of_int np));
        ("edit_p90_ms", "ms", ms (percentile 0.90 (per_program walls)));
        ("lint_delta_p50_ms", "ms", ms typical_stage);
        ("peak_heap_mb", "MiB", heap);
      ]
  | Some (pw, counters, majors) ->
    let traced = Array.length pw in
    finish
      (layer_metrics total ~traced ~passes:(traced + Array.length plain) ~counters ~majors
         ~overhead:(median pw -. median plain)
         ~wall:(sum pw)
      @ [
          ("core.alias.pairs", "count", float_of_int !pairs /. float_of_int traced);
          ("serve.compute_s", "s", 0.);
          ("serve.wait_s", "s", 0.);
        ])

(* --- serve: a Unix-socket server in a process of its own, a closed
   loop of two client connections through Serve.Loadgen --- *)

(* Clients per Loadgen round.  Each client sends Loadgen's default
   traffic (2 edits, 8 queries, a source pin), and Loadgen adds an
   [explain --all] to client [c] when [c mod 32 = 0]; with 32 clients a
   round carries the same mix as any long Loadgen run. *)
let serve_clients = 32

(* What a server process sends back when it stops: its spans, and its
   registry deltas and major collections since it began serving; the
   alias.pairs gauge; its top_heap_words; its warm-up requests and the
   ones that failed. *)
type served = {
  spans : Obs.Span.t list;
  counters : (string * int) list;
  majors : int;
  alias_pairs : int;
  top_heap_words : int;
  warm : int;
  warm_failures : string list;
}

type server = { path : string; pid : int; from_server : Unix.file_descr }

let ok_line line =
  match J.parse line with Ok j -> J.member "ok" j = Some (J.Bool true) | Error _ -> false

(* The server process.  It loads the corpus and forces each program's
   base analysis and lint baseline through the server's own request
   path, as a server that has been up a while would have them, then
   serves the socket until shut down. *)
let serve_child ~trace corpus path =
  let srv = Serve.Server.create () in
  let warm = ref 0 and failures = ref [] in
  let request what req =
    incr warm;
    let line =
      Serve.Server.handle_line srv ~client:0 (Serve.Protocol.to_line ~id:(J.Int 0) req)
    in
    if not (ok_line line) then failures := what :: !failures
  in
  List.iter
    (fun p ->
      let q query = Serve.Protocol.Query { program = p.name; session = ""; query } in
      request (p.name ^ ": load") (Serve.Protocol.Load { program = p.name; source = p.source });
      request (p.name ^ ": warm analysis") (q (Serve.Protocol.Mod_site { site = 0 }));
      request (p.name ^ ": warm lint baseline") (q Serve.Protocol.Lint_delta))
    corpus;
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  let snap = Obs.Metric.snapshot () and gc0 = majors () in
  Obs.Span.set_enabled trace;
  Serve.Server.serve_socket srv ~path;
  Obs.Span.set_enabled false;
  {
    spans = Obs.Span.drain ();
    counters = Obs.Metric.delta ~since:snap;
    majors = majors () - gc0;
    alias_pairs =
      (match Obs.Metric.find "alias.pairs" with Some h -> Obs.Metric.value h | None -> 0);
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    warm = !warm;
    warm_failures = List.rev !failures;
  }

(* Server processes not yet stopped; killed at exit on any path out. *)
let live_servers = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers)

(* The server runs in a forked process, as [sidefx serve] does.  In one
   process the client's and the server's domains would stop each other
   for every minor collection, and on a shared host query latency would
   measure that rendezvous.  The parent waits for the socket file,
   polling every millisecond: Loadgen.socket_conn retries only every
   50 ms, and that sleep would count in setup_s.  A child whose parent
   has gone without stopping it exits within a second. *)
let start_server ~trace corpus path =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let parent = Unix.getppid () in
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> if Unix.getppid () <> parent then Unix._exit 3));
    ignore (Unix.setitimer Unix.ITIMER_REAL Unix.{ it_interval = 1.; it_value = 1. });
    let code =
      match serve_child ~trace corpus path with
      | r ->
        ignore (Unix.setitimer Unix.ITIMER_REAL Unix.{ it_interval = 0.; it_value = 0. });
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc r [];
        close_out oc;
        0
      | exception e ->
        Printf.eprintf "pipebench: server: %s\n%!" (Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    live_servers := pid :: !live_servers;
    let rec await tries =
      if not (Sys.file_exists path) then
        if tries = 0 then failwith "the server did not open its socket"
        else begin
          Unix.sleepf 1e-3;
          await (tries - 1)
        end
    in
    await 60_000;
    { path; pid; from_server = rd }

let rpc (c : Serve.Loadgen.conn) req =
  c.send (Serve.Protocol.to_line ~id:(J.Int 0) req);
  ok_line (c.recv ())

(* Shut the server down, wait for its process and charge its warm-up
   requests to the correctness accounting. *)
let stop_server s =
  let c = Serve.Loadgen.socket_conn ~path:s.path () in
  check "server shutdown" (rpc c Serve.Protocol.Shutdown);
  c.close ();
  let ic = Unix.in_channel_of_descr s.from_server in
  let r = attempt "server report" (fun () -> (Marshal.from_channel ic : served)) in
  close_in ic;
  ignore (Unix.waitpid [] s.pid);
  live_servers := List.filter (( <> ) s.pid) !live_servers;
  Option.iter
    (fun r ->
      attempted := !attempted + r.warm;
      failed := !failed + List.length r.warm_failures;
      List.iter (Printf.eprintf "pipebench: check failed: %s\n%!") r.warm_failures)
    r;
  r

let socket_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "_build/pipebench-%d-%d.sock" (Unix.getpid ()) !k

(* Generate and render the corpus, start a server process and wait
   until it has loaded and warmed every program. *)
let serve_setup () =
  let corpus = make_corpus () in
  (corpus, start_server ~trace:false corpus (socket_path ()))

(* What the clients of the rounds saw.  Calibrated latencies of summary
   queries, edits and lint-deltas, kept outside the OCaml heap; the
   completed requests, the procedures of the programs they targeted and
   their summed latency; and [busy], the raw time during which at least
   one request was outstanding. *)
type clients = {
  q : Samples.t;
  e : Samples.t;
  ld : Samples.t;
  mutable requests : int;
  mutable procs : int;
  mutable latency : float;
  mutable inflight : int;
  mutable busy_since : float;
  mutable busy : float;
}

let query_classes =
  List.map (( ^ ) "query.") [ "gmod"; "guse"; "rmod"; "ruse"; "mod"; "use"; "alias"; "purity" ]

(* Connections for one Loadgen round.  The round's first connection
   only re-sends the corpus loads; the server already holds exactly
   these sources and reloading would drop the analyses and lint
   baselines warmed at setup, so those loads are answered here.  Every
   other connection is a real socket client, calibrated when it opens
   (the factor goes to [factors]), whose requests are timed one by one
   from send to response. *)
let round_connect ~path ~procs_of ~factors cl =
  let first = ref true in
  fun () ->
    if !first then begin
      first := false;
      let pending = Queue.create () in
      {
        Serve.Loadgen.send =
          (fun line ->
            let inc = Serve.Protocol.parse line in
            Queue.add (Serve.Protocol.ok_response ~id:inc.Serve.Protocol.id (J.Obj [])) pending);
        recv = (fun () -> Queue.pop pending);
        close = ignore;
      }
    end
    else begin
      let f = calibrate () in
      factors := f :: !factors;
      let c = Serve.Loadgen.socket_conn ~path () in
      let inflight = Queue.create () in
      {
        Serve.Loadgen.send =
          (fun line ->
            let inc = Serve.Protocol.parse line in
            let program =
              match inc.Serve.Protocol.request with
              | Ok
                  ( Serve.Protocol.Query { program; _ }
                  | Serve.Protocol.Edit { program; _ }
                  | Serve.Protocol.Explain { program; _ } ) -> program
              | _ -> ""
            in
            let t0 = now () in
            if cl.inflight = 0 then cl.busy_since <- t0;
            cl.inflight <- cl.inflight + 1;
            Queue.add (Serve.Protocol.op_class inc.Serve.Protocol.request, procs_of program, t0)
              inflight;
            c.send line);
        recv =
          (fun () ->
            let cls, procs, t0 = Queue.pop inflight in
            let settle () =
              let t1 = now () in
              cl.inflight <- cl.inflight - 1;
              if cl.inflight = 0 then cl.busy <- cl.busy +. (t1 -. cl.busy_since);
              t1
            in
            match c.recv () with
            | exception ex ->
              ignore (settle ());
              raise ex
            | line ->
              let l = (settle () -. t0) *. f in
              cl.requests <- cl.requests + 1;
              cl.procs <- cl.procs + procs;
              cl.latency <- cl.latency +. l;
              if List.mem cls query_classes then Samples.add cl.q l
              else if cls = "edit" then Samples.add cl.e l
              else if cls = "query.lint-delta" then Samples.add cl.ld l;
              line);
        close = c.close;
      }
    end

(* Client and server share one CPU.  In the closed loop they mostly
   take turns, and sharing spares every round trip the wake-up of an
   idle CPU, which on a shared host takes as long as the host pleases;
   it also makes the calibration kernel run on the server's CPU. *)
external pin_to_one_cpu : unit -> int = "pipebench_pin_to_one_cpu"

let serve () =
  let cpu = pin_to_one_cpu () in
  let (corpus, s), setup_s =
    repeat_setup ~setup:serve_setup ~teardown:(fun (_, s) -> ignore (stop_server s))
  in
  let programs = List.map (fun p -> (p.name, p.source)) corpus in
  let procs_of name =
    match List.find_opt (fun p -> p.name = name) corpus with Some p -> p.procs | None -> 0
  in
  let cl =
    {
      q = Samples.create ();
      e = Samples.create ();
      ld = Samples.create ();
      requests = 0;
      procs = 0;
      latency = 0.;
      inflight = 0;
      busy_since = 0.;
      busy = 0.;
    }
  in
  (* The traced run sends its traced rounds to a second server process,
     started with spans on, and its untraced rounds to [s]. *)
  let s_traced =
    if traced then Some (start_server ~trace:true corpus (socket_path ())) else None
  in
  let traced_client = ref 0. and traced_factors = ref [] in
  (* One Loadgen run of [serve_clients] clients.  Returns its calibrated
     busy time: the client's own work between requests (compiling the
     corpus, planning and rendering edits, calibrating) is left out. *)
  let round ~trace r =
    let busy0 = cl.busy and latency0 = cl.latency in
    let factors = ref [] in
    let path = match s_traced with Some t when trace -> t.path | _ -> s.path in
    let report =
      Serve.Loadgen.run ~concurrency:2 ~clients:serve_clients
        ~seed:((seed * 7919) + r) ~programs
        ~connect:(round_connect ~path ~procs_of ~factors cl)
        ()
    in
    attempted := !attempted + report.Serve.Loadgen.requests;
    failed := !failed + report.Serve.Loadgen.protocol_errors;
    List.iter (Printf.eprintf "pipebench: serve: %s\n%!") report.Serve.Loadgen.error_samples;
    if trace then begin
      traced_client := !traced_client +. (cl.latency -. latency0);
      traced_factors := !factors @ !traced_factors
    end;
    (cl.busy -. busy0) *. median (Array.of_list !factors)
  in
  let next = ref 0 in
  let next_round ~trace =
    incr next;
    round ~trace !next
  in
  let measure () =
    if traced then `Traced (alternate ~budget:seconds next_round)
    else `Plain (timed_passes ~budget:seconds ~min_passes:1 (fun () -> next_round ~trace:false))
  in
  let stop_all () = (stop_server s, Option.bind s_traced stop_server) in
  let result =
    match measure () with
    | r -> r
    | exception e ->
      ignore (stop_all ());
      raise e
  in
  let served, served_traced = stop_all () in
  let q = Samples.to_array cl.q and e = Samples.to_array cl.e in
  let ld = Samples.to_array cl.ld in
  let n_req = cl.requests in
  info
    [
      ("cpu", J.Int cpu);
      ("requests", J.Int n_req);
      ("query_samples", J.Int (Array.length q));
      ("edit_samples", J.Int (Array.length e));
      ("lint_delta_samples", J.Int (Array.length ld));
    ];
  match result with
  | `Plain walls ->
    let wall = sum walls in
    finish
      [
        ("setup_s", "s", setup_s);
        ("procs_per_s", "procs/s", float_of_int cl.procs /. wall);
        ("requests_per_s", "req/s", float_of_int n_req /. wall);
        ("query_p50_ms", "ms", ms (percentile 0.50 q));
        ("query_p95_ms", "ms", ms (percentile 0.95 q));
        ("edit_p50_ms", "ms", ms (percentile 0.50 e));
        ("edit_p90_ms", "ms", ms (percentile 0.90 e));
        ("lint_delta_p50_ms", "ms", ms (percentile 0.50 ld));
        ( "peak_heap_mb", "MiB",
          match served with Some r -> mib_of_words r.top_heap_words | None -> nan );
      ]
  | `Traced (plain, tr, _, _) ->
    (* The registry counts and collections that matter are the servers';
       both ran rounds, so both count. *)
    let reports = List.filter_map Fun.id [ served; served_traced ] in
    let counters =
      List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc (k, v) ->
              (k, v + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
            acc r.counters)
        [] reports
    in
    let majors = List.fold_left (fun acc r -> acc + r.majors) 0 reports in
    let spans, alias_pairs =
      match served_traced with Some r -> (r.spans, r.alias_pairs) | None -> ([], 0)
    in
    (* Server spans cannot be matched to client calibrations one by one;
       they take the traced rounds' median factor. *)
    let f = median (Array.of_list !traced_factors) in
    let table = cost_table () in
    List.iter (attribute [ table ] f) spans;
    let compute =
      f
      *. List.fold_left
           (fun acc sp ->
             if String.starts_with ~prefix:"serve." sp.Obs.Span.name then
               acc +. sp.Obs.Span.elapsed
             else acc)
           0. spans
    in
    let traced = Array.length tr in
    let per x = x /. float_of_int traced in
    finish
      (layer_metrics table ~traced ~passes:(traced + Array.length plain) ~counters ~majors
         ~overhead:(median tr -. median plain)
         ~wall:(sum tr)
      @ [
          ("core.alias.pairs", "count", float_of_int alias_pairs);
          ("serve.compute_s", "s", per compute);
          ("serve.wait_s", "s", per (!traced_client -. compute));
        ])

let () =
  Obs.Clock.set now;
  match workload with
  | "analyze" | "dataflow" | "lint" -> batch ()
  | "serve" -> serve ()
  | w ->
    Printf.eprintf "pipebench: unknown workload %S (analyze, dataflow, lint, serve)\n" w;
    exit 2
