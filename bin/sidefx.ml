(* sidefx — command-line driver for the Cooper–Kennedy side-effect
   analysis library.

     sidefx analyze FILE        full MOD/USE report for a MiniProc file
     sidefx sections FILE       regular-section (§6) report
     sidefx stats FILE          call / binding multi-graph statistics
     sidefx gen [...]           emit a random MiniProc program
     sidefx bench-table [...]   empirical-linearity operation counts *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Frontend.Sema.compile ~file:path (read_file path) with
  | Ok prog -> prog
  | Error errs ->
    Format.eprintf "@[<v>%a@]@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline Frontend.Sema.pp_error)
      errs;
    exit 1

let load_with_locs path =
  match Frontend.Sema.compile_with_locs ~file:path (read_file path) with
  | Ok pair -> pair
  | Error errs ->
    Format.eprintf "@[<v>%a@]@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline Frontend.Sema.pp_error)
      errs;
    exit 1

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniProc source file.")

(* --- observability plumbing (shared --trace / --json flag pair) --- *)

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:
             "Record per-phase tracing spans (wall time + operation-counter \
              deltas) and print the phase table to stderr on exit.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit machine-readable JSON on stdout instead of text.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs" ] ~docv:"N"
           ~doc:
             "Worker domains for the condensation-wavefront scheduler.  1 \
              (default) runs the sequential solvers unchanged; 0 means all \
              recommended cores.  Results are bit-identical at every setting.")

let tier_conv =
  let parse s =
    match Ptsto.tier_of_string s with
    | Some t -> Ok t
    | None ->
      Error (`Msg (Printf.sprintf "unknown points-to tier '%s' (steensgaard|andersen)" s))
  in
  let print ppf t = Format.pp_print_string ppf (Ptsto.tier_name t) in
  Arg.conv (parse, print)

let ptsto_arg =
  Arg.(value & opt tier_conv Ptsto.Steensgaard
       & info [ "ptsto" ] ~docv:"TIER"
           ~doc:
             "Points-to tier used to resolve pointer dereferences: \
              $(b,steensgaard) (unification, near-linear, default) or \
              $(b,andersen) (inclusion, more precise).  Ignored on \
              pointer-free programs, whose answers are tier-independent.")

(* Run a command body with span recording per [trace]; the table goes
   to stderr so stdout stays parseable. *)
let with_trace trace f =
  if not trace then f ()
  else begin
    Obs.Span.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Span.set_enabled false;
        match Obs.Span.drain () with
        | [] -> ()
        | spans -> Format.eprintf "%a@." Obs.pp_trace spans)
      f
  end

(* JSON views of analysis results.  Key sets are part of the CLI
   contract (cram-tested); values may change freely. *)

let var_set_json prog set =
  Obs.Json.List
    (List.map
       (fun vid -> Obs.Json.String (Ir.Pp.qualified_var_name prog vid))
       (Bitvec.to_list set))

let graph_shape_json call binding =
  let prog = call.Callgraph.Call.prog in
  (* Wavefront leveling of each graph's condensation: how many
     sequential batches the parallel scheduler needs, and the widest
     one (the available parallelism). *)
  let call_scc = call.Callgraph.Call.scc in
  let beta_scc = binding.Callgraph.Binding.scc in
  let call_levels = call_scc.Graphs.Scc.levels in
  let beta_levels = beta_scc.Graphs.Scc.levels in
  Obs.Json.Obj
    [
      ("procedures", Obs.Json.Int (Ir.Prog.n_procs prog));
      ("call_sites", Obs.Json.Int (Ir.Prog.n_sites prog));
      ("call_sccs", Obs.Json.Int call_scc.Graphs.Scc.n_comps);
      ("call_levels", Obs.Json.Int call_levels.Graphs.Scc.n_levels);
      ("call_max_width", Obs.Json.Int call_levels.Graphs.Scc.max_width);
      ("beta_nodes", Obs.Json.Int (Callgraph.Binding.n_nodes binding));
      ("beta_edges", Obs.Json.Int (Callgraph.Binding.n_edges binding));
      ("beta_sccs", Obs.Json.Int beta_scc.Graphs.Scc.n_comps);
      ("beta_levels", Obs.Json.Int beta_levels.Graphs.Scc.n_levels);
      ("beta_max_width", Obs.Json.Int beta_levels.Graphs.Scc.max_width);
      ( "beta_edges_by_level",
        Obs.Json.Obj
          (List.map
             (fun (lvl, count) -> (Printf.sprintf "L%d" lvl, Obs.Json.Int count))
             (Callgraph.Binding.edges_by_level binding)) );
      ("nesting_depth", Obs.Json.Int (Ir.Prog.max_level prog));
    ]

let analysis_json (t : Core.Analyze.t) =
  let prog = t.Core.Analyze.prog in
  let procedures =
    let acc = ref [] in
    Ir.Prog.iter_procs prog (fun pr ->
        let pid = pr.Ir.Prog.pid in
        acc :=
          Obs.Json.Obj
            [
              ("name", Obs.Json.String pr.Ir.Prog.pname);
              ( "rmod",
                Obs.Json.List
                  (List.map
                     (fun vid -> Obs.Json.String (Ir.Pp.qualified_var_name prog vid))
                     (Core.Rmod.rmod_of_proc t.Core.Analyze.rmod pid)) );
              ("imod_plus", var_set_json prog t.Core.Analyze.imod_plus.(pid));
              ("gmod", var_set_json prog t.Core.Analyze.gmod.(pid));
              ("guse", var_set_json prog t.Core.Analyze.guse.(pid));
              ( "aliases",
                Obs.Json.List
                  (List.map
                     (fun (x, y) ->
                       Obs.Json.List
                         [
                           Obs.Json.String (Ir.Pp.qualified_var_name prog x);
                           Obs.Json.String (Ir.Pp.qualified_var_name prog y);
                         ])
                     (Core.Alias.pairs t.Core.Analyze.alias pid)) );
            ]
          :: !acc);
    Obs.Json.List (List.rev !acc)
  in
  let sites =
    let acc = ref [] in
    Ir.Prog.iter_sites prog (fun s ->
        let sid = s.Ir.Prog.sid in
        acc :=
          Obs.Json.Obj
            [
              ("sid", Obs.Json.Int sid);
              ( "caller",
                Obs.Json.String (Ir.Prog.proc prog s.Ir.Prog.caller).Ir.Prog.pname );
              ( "callee",
                Obs.Json.String (Ir.Prog.proc prog s.Ir.Prog.callee).Ir.Prog.pname );
              ("mod", var_set_json prog (Core.Analyze.mod_of_site t sid));
              ("use", var_set_json prog (Core.Analyze.use_of_site t sid));
            ]
          :: !acc);
    Obs.Json.List (List.rev !acc)
  in
  Obs.Json.Obj
    [
      ("program", Obs.Json.String prog.Ir.Prog.name);
      ("graph", graph_shape_json t.Core.Analyze.call t.Core.Analyze.binding);
      ("procedures", procedures);
      ("sites", sites);
    ]

(* --- analyze --- *)

let analyze_cmd =
  let run file trace json jobs ptsto =
    with_trace trace @@ fun () ->
    let prog = load file in
    let t = Par.Pool.with_pool ~jobs (fun pool -> Core.Analyze.run ?pool ~ptsto prog) in
    if json then print_endline (Obs.Json.to_string (analysis_json t))
    else Format.printf "%a@." Core.Analyze.pp_report t
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Interprocedural MOD/USE analysis of a MiniProc file.")
    Term.(const run $ file_arg $ trace_arg $ json_arg $ jobs_arg $ ptsto_arg)

(* --- must --- *)

let must_cmd =
  let run file trace json jobs ptsto =
    with_trace trace @@ fun () ->
    let prog = load file in
    let t =
      Par.Pool.with_pool ~jobs (fun pool -> Core.Analyze.run ?pool ~ptsto prog)
    in
    let m = t.Core.Analyze.mustmod in
    if json then begin
      let procedures =
        let acc = ref [] in
        Ir.Prog.iter_procs prog (fun pr ->
            let pid = pr.Ir.Prog.pid in
            acc :=
              Obs.Json.Obj
                [
                  ("name", Obs.Json.String pr.Ir.Prog.pname);
                  ("mustmod", var_set_json prog (Core.Mustmod.mustmod_of m pid));
                  ("intra", var_set_json prog (Core.Mustmod.intra_of m pid));
                  ("demoted", var_set_json prog (Core.Mustmod.demoted_of m pid));
                  ("gmod", var_set_json prog t.Core.Analyze.gmod.(pid));
                ]
              :: !acc);
        Obs.Json.List (List.rev !acc)
      in
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("program", Obs.Json.String prog.Ir.Prog.name);
                ("rounds", Obs.Json.Int m.Core.Mustmod.rounds);
                ( "subset_of_gmod",
                  Obs.Json.Bool
                    (Core.Mustmod.check_subset m ~gmod:t.Core.Analyze.gmod) );
                ("procedures", procedures);
              ]))
    end
    else Format.printf "%a@." Core.Mustmod.pp m
  in
  Cmd.v
    (Cmd.info "must"
       ~doc:
         "Interprocedural MUSTMOD summaries: the variables each procedure \
          definitely writes on every terminating run — intersection over \
          branch paths, propagated bottom-up over the call condensation, \
          alias-demoted, capped by GMOD.  These are the kill sets that make \
          call sites strongly transparent to the dataflow solvers.")
    Term.(const run $ file_arg $ trace_arg $ json_arg $ jobs_arg $ ptsto_arg)

(* --- lint --- *)

let lint_cmd =
  let severity_conv =
    let parse s =
      match Lint.Diagnostic.severity_of_string s with
      | Some sev -> Ok sev
      | None ->
        Error (`Msg (Printf.sprintf "unknown severity '%s' (note|warning|error)" s))
    in
    let print ppf s =
      Format.pp_print_string ppf (Lint.Diagnostic.severity_to_string s)
    in
    Arg.conv (parse, print)
  in
  let run file rule_names json threshold trace jobs ptsto =
    let code =
      with_trace trace @@ fun () ->
      let prog, locs = load_with_locs file in
      let rules =
        match rule_names with
        | [] -> Lint.Rule.all
        | names ->
          List.map
            (fun name ->
              match Lint.Rule.find name with
              | Some r -> r
              | None ->
                Format.eprintf "lint: unknown rule '%s' (known: %s)@." name
                  (String.concat ", "
                     (List.map (fun r -> r.Lint.Rule.name) Lint.Rule.all));
                exit 2)
            names
      in
      let findings =
        Par.Pool.with_pool ~jobs (fun pool ->
            let t = Core.Analyze.run ?pool ~ptsto prog in
            Lint.Engine.run ?pool ~locs ~rules t)
      in
      if json then
        print_endline
          (Obs.Json.to_string
             (Lint.Engine.report_json ~program:prog.Ir.Prog.name ~rules findings))
      else if List.is_empty findings then Format.printf "no findings@."
      else begin
        List.iter
          (fun d -> Format.printf "@[<v>%a@]@." Lint.Diagnostic.pp d)
          findings;
        let count sev =
          List.length
            (List.filter (fun d -> d.Lint.Diagnostic.severity = sev) findings)
        in
        Format.printf "%d findings: %d error, %d warning, %d note@."
          (List.length findings)
          (count Lint.Diagnostic.Error)
          (count Lint.Diagnostic.Warning)
          (count Lint.Diagnostic.Note)
      end;
      let over = Lint.Diagnostic.severity_order threshold in
      if
        List.exists
          (fun d -> Lint.Diagnostic.severity_order d.Lint.Diagnostic.severity >= over)
          findings
      then 1
      else 0
    in
    if code <> 0 then exit code
  in
  let rules_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "rules" ] ~docv:"RULES"
          ~doc:
            "Comma-separated subset of rules to run (default: all).  Known \
             rules: unused-formal, write-only-global, pure-proc, \
             alias-inflation, aliased-actuals, loop-parallel, dead-store, \
             rmw-hint, undereferenced-ptr, ptr-formal-store, \
             use-before-init, redundant-store.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt severity_conv Lint.Diagnostic.Warning
      & info [ "severity-threshold" ] ~docv:"SEV"
          ~doc:
            "Exit non-zero when any finding is at or above this severity \
             (note|warning|error; default warning).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Summary-driven interprocedural diagnostics: unused reference \
          formals, write-only globals, pure procedures, alias-inflated call \
          sites, aliased-actual hazards, and loop-parallelisability verdicts.")
    Term.(
      const run $ file_arg $ rules_arg $ json_arg $ threshold_arg $ trace_arg
      $ jobs_arg $ ptsto_arg)

(* --- explain --- *)

let explain_cmd =
  let run file fact all json jobs ptsto =
    if (fact = None) = not all then begin
      Format.eprintf "explain: give exactly one of --fact or --all@.";
      exit 2
    end;
    let prog, locs = load_with_locs file in
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let t = Core.Analyze.run ?pool ~provenance:true ~ptsto prog in
    let header =
      [
        ("file", Obs.Json.String file);
        ("program", Obs.Json.String prog.Ir.Prog.name);
      ]
    in
    if all then begin
      (* Enumerate every derivable fact and demand a witness for each:
         the executable form of the completeness contract. *)
      let facts = Core.Explain.all_facts t ~locs in
      let diags = List.map Lint.Diagnostic.fact (Lint.Engine.run ?pool ~locs t) in
      let results = facts @ diags in
      let missing = List.filter (fun (_, w) -> w = None) results in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                (header
                @ [
                    ("facts", Obs.Json.List (List.map Core.Explain.fact_json results));
                    ("total", Obs.Json.Int (List.length results));
                    ("missing", Obs.Json.Int (List.length missing));
                  ])))
      else begin
        Format.printf "explained %d/%d facts@."
          (List.length results - List.length missing)
          (List.length results);
        List.iter
          (fun (f, _) -> Format.printf "missing witness: %s@." f)
          missing
      end;
      if missing <> [] then exit 1
    end
    else begin
      let fact_str = Option.get fact in
      let fail code fmt =
        Format.kasprintf (fun msg -> Format.eprintf "explain: %s@." msg; exit code) fmt
      in
      let print_json fields =
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj (header @ (("fact", Obs.Json.String fact_str) :: fields))))
      in
      match Core.Explain.parse_fact fact_str with
      | Error msg -> fail 2 "%s" msg
      | Ok (Core.Explain.Fdiag (code, filter)) ->
        let found =
          List.filter
            (Lint.Diagnostic.matches ~code ~filter)
            (Lint.Engine.run ?pool ~locs t)
        in
        if List.is_empty found then fail 1 "no finding matches '%s'" fact_str;
        if json then
          print_json
            [ ("findings", Obs.Json.List (List.map Lint.Diagnostic.to_json found)) ]
        else
          List.iter
            (fun d -> Format.printf "@[<v>%a@]@." Lint.Diagnostic.pp d)
            found
      | Ok f -> (
        match Core.Explain.fact_witness t ~locs f with
        | Error msg -> fail 2 "%s" msg
        | Ok None -> fail 1 "fact '%s' does not hold" fact_str
        | Ok (Some ls) ->
          if json then
            print_json
              [ ("witness", Obs.Json.List (List.map (fun l -> Obs.Json.String l) ls)) ]
          else List.iter print_endline ls)
    end
  in
  let fact_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fact" ] ~docv:"FACT"
          ~doc:
            "The fact to explain: $(b,gmod:P:V) / $(b,guse:P:V) (why variable \
             V is in GMOD/GUSE of procedure P), $(b,must:P:V) (why V is in \
             MUSTMOD of P — definitely written on every run), $(b,rmod:P:F) \
             / $(b,ruse:P:F) (why reference formal F of P is in RMOD/RUSE), \
             $(b,alias:P:X:Y) (why X and Y may alias in P), or \
             $(b,diag:CODE[:FILTER]) (witnesses of the lint findings with \
             that code, FILTER substring-matching scope or message).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Instead of --fact, enumerate every GMOD/GUSE, MUSTMOD, \
             RMOD/RUSE and alias fact plus every lint finding, check each \
             has a witness, and exit non-zero if any lacks one.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Print the derivation chain (witness) of an analysis fact: the β/call \
          path that carried it, ending at source-level evidence with spans.")
    Term.(const run $ file_arg $ fact_arg $ all_arg $ json_arg $ jobs_arg $ ptsto_arg)

(* --- ptsto --- *)

let ptsto_cmd =
  let run file tier json trace =
    with_trace trace @@ fun () ->
    let prog = load file in
    if not (Ptsto.has_pointers prog) then begin
      Format.eprintf "ptsto: '%s' has no pointer variables@." file;
      exit 1
    end;
    let t = Core.Analyze.run ~ptsto:tier prog in
    let pt = Option.get t.Core.Analyze.ptsto in
    if json then begin
      let loc_json = function
        | `Var vid -> Obs.Json.String (Ir.Pp.qualified_var_name prog vid)
        | `Heap k -> Obs.Json.String (Ptsto.heap_name pt k)
      in
      let pointers =
        let acc = ref [] in
        Ir.Prog.iter_vars prog (fun v ->
            if Ir.Types.is_ptr v.Ir.Prog.vty then
              acc :=
                Obs.Json.Obj
                  [
                    ( "var",
                      Obs.Json.String (Ir.Pp.qualified_var_name prog v.Ir.Prog.vid) );
                    ( "points_to",
                      Obs.Json.List
                        (List.map loc_json (Ptsto.points_to pt v.Ir.Prog.vid)) );
                  ]
                :: !acc);
        Obs.Json.List (List.rev !acc)
      in
      let heap =
        Obs.Json.List
          (List.init (Ptsto.n_heap pt) (fun k ->
               Obs.Json.Obj
                 [
                   ("id", Obs.Json.Int k);
                   ("name", Obs.Json.String (Ptsto.heap_name pt k));
                 ]))
      in
      let alias_pairs =
        let acc = ref [] in
        Ir.Prog.iter_procs prog (fun pr ->
            match Core.Alias.pairs t.Core.Analyze.alias pr.Ir.Prog.pid with
            | [] -> ()
            | pairs ->
              acc :=
                Obs.Json.Obj
                  [
                    ("proc", Obs.Json.String pr.Ir.Prog.pname);
                    ( "pairs",
                      Obs.Json.List
                        (List.map
                           (fun (x, y) ->
                             Obs.Json.List
                               [
                                 Obs.Json.String (Ir.Pp.qualified_var_name prog x);
                                 Obs.Json.String (Ir.Pp.qualified_var_name prog y);
                               ])
                           pairs) );
                  ]
                :: !acc);
        Obs.Json.List (List.rev !acc)
      in
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("program", Obs.Json.String prog.Ir.Prog.name);
                ("tier", Obs.Json.String (Ptsto.tier_name tier));
                ("heap_sites", heap);
                ("pointers", pointers);
                ("size", Obs.Json.Int (Ptsto.size pt));
                ("alias_pairs", alias_pairs);
              ]))
    end
    else begin
      Format.printf "points-to (%s): %d heap site%s, size %d@."
        (Ptsto.tier_name tier) (Ptsto.n_heap pt)
        (if Ptsto.n_heap pt = 1 then "" else "s")
        (Ptsto.size pt);
      Format.printf "%a" Ptsto.pp pt;
      let total = ref 0 in
      Ir.Prog.iter_procs prog (fun pr ->
          match Core.Alias.pairs t.Core.Analyze.alias pr.Ir.Prog.pid with
          | [] -> ()
          | pairs ->
            total := !total + List.length pairs;
            List.iter
              (fun (x, y) ->
                Format.printf "alias %s: <%s, %s>@." pr.Ir.Prog.pname
                  (Ir.Pp.qualified_var_name prog x)
                  (Ir.Pp.qualified_var_name prog y))
              pairs);
      Format.printf "%d §5 alias pair%s@." !total (if !total = 1 then "" else "s")
    end
  in
  let tier_pos =
    Arg.(value & opt tier_conv Ptsto.Steensgaard
         & info [ "tier" ] ~docv:"TIER"
             ~doc:"Points-to tier: $(b,steensgaard) (default) or $(b,andersen).")
  in
  Cmd.v
    (Cmd.info "ptsto"
       ~doc:
         "Flow-insensitive points-to report: per-pointer location sets, heap \
          summary sites, and the §5 alias pairs the solution induces.")
    Term.(const run $ file_arg $ tier_pos $ json_arg $ trace_arg)

(* --- sections --- *)

let sections_cmd =
  let run file trace =
    with_trace trace @@ fun () ->
    let prog = load file in
    if not (Sections.Analyze_sections.applicable prog) then begin
      Format.eprintf "regular-section analysis requires a flat program@.";
      exit 1
    end;
    let t = Sections.Analyze_sections.run prog in
    Format.printf "%a@." Sections.Analyze_sections.pp_report t
  in
  Cmd.v
    (Cmd.info "sections" ~doc:"Regular-section (array subsection) analysis, §6.")
    Term.(const run $ file_arg $ trace_arg)

(* --- sections-report --- *)

let sections_report_cmd =
  let run file json trace =
    with_trace trace @@ fun () ->
    let prog = load file in
    if not (Sections.Analyze_sections.applicable prog) then begin
      Format.eprintf "section-precision report requires a flat program@.";
      exit 1
    end;
    let t = Sections.Analyze_sections.run prog in
    let rows = Sections.Precision.report t in
    if json then
      print_endline (Obs.Json.to_string (Sections.Precision.to_json prog rows))
    else Format.printf "%a@." (Sections.Precision.pp prog) rows
  in
  Cmd.v
    (Cmd.info "sections-report"
       ~doc:
         "Per-array §6 precision report: how many GMOD/GUSE and per-site \
          MOD/USE contexts keep a proper section (row, column, element) \
          instead of collapsing to bottom or whole-array.")
    Term.(const run $ file_arg $ json_arg $ trace_arg)

(* --- dataflow --- *)

let dataflow_cmd =
  let run file blocks json trace jobs =
    with_trace trace @@ fun () ->
    let prog, locs = load_with_locs file in
    Par.Pool.with_pool ~jobs (fun pool ->
        let t = Core.Analyze.run ?pool prog in
        let drv = Dataflow.Driver.create ~locs t in
        Dataflow.Driver.solve_all ?pool drv;
        let sol pid = Dataflow.Driver.solution drv pid in
        if json then begin
          let procs =
            let acc = ref [] in
            Ir.Prog.iter_procs prog (fun pr ->
                let s = sol pr.Ir.Prog.pid in
                acc :=
                  Obs.Json.Obj
                    [
                      ("name", Obs.Json.String pr.Ir.Prog.pname);
                      ("blocks", Obs.Json.Int (Dataflow.Cfg.n_blocks s.Dataflow.Driver.cfg));
                      ("edges", Obs.Json.Int (Dataflow.Cfg.n_edges s.Dataflow.Driver.cfg));
                      ("instrs", Obs.Json.Int (Dataflow.Cfg.n_instrs s.Dataflow.Driver.cfg));
                      ("defs", Obs.Json.Int (Dataflow.Reach.n_defs s.Dataflow.Driver.reach));
                      ("live_passes", Obs.Json.Int (Dataflow.Live.passes s.Dataflow.Driver.live));
                      ( "reach_passes",
                        Obs.Json.Int (Dataflow.Reach.passes s.Dataflow.Driver.reach) );
                    ]
                  :: !acc);
            Obs.Json.List (List.rev !acc)
          in
          print_endline
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("program", Obs.Json.String prog.Ir.Prog.name);
                    ("procedures", procs);
                  ]))
        end
        else begin
          Format.printf "== dataflow: %s ==@." prog.Ir.Prog.name;
          Ir.Prog.iter_procs prog (fun pr ->
              let s = sol pr.Ir.Prog.pid in
              Format.printf
                "%-12s %3d blocks %3d edges %3d instrs %3d defs  live %d passes, \
                 reach %d passes@."
                pr.Ir.Prog.pname
                (Dataflow.Cfg.n_blocks s.Dataflow.Driver.cfg)
                (Dataflow.Cfg.n_edges s.Dataflow.Driver.cfg)
                (Dataflow.Cfg.n_instrs s.Dataflow.Driver.cfg)
                (Dataflow.Reach.n_defs s.Dataflow.Driver.reach)
                (Dataflow.Live.passes s.Dataflow.Driver.live)
                (Dataflow.Reach.passes s.Dataflow.Driver.reach);
              if blocks then
                Format.printf "@[<v 2>  %a@]@."
                  (Dataflow.Cfg.pp prog)
                  s.Dataflow.Driver.cfg)
        end)
  in
  let blocks_arg =
    Arg.(value & flag
         & info [ "blocks" ] ~doc:"Also print each procedure's basic-block listing.")
  in
  Cmd.v
    (Cmd.info "dataflow"
       ~doc:
         "Statement-level dataflow summary: per-procedure CFG sizes and \
          round-robin solver pass counts for liveness and reaching \
          definitions (calls made transparent by the interprocedural \
          summaries).")
    Term.(const run $ file_arg $ blocks_arg $ json_arg $ trace_arg $ jobs_arg)

(* --- stats --- *)

let stats_cmd =
  let run file trace json jobs =
    with_trace trace @@ fun () ->
    let prog = load file in
    if json then begin
      (* The JSON view additionally runs the full analysis under a
         collected span, so it can report latency histograms (per
         phase) and the GC pressure of the run. *)
      let before = Obs.Metric.snapshot () in
      let (t, reach), span =
        Obs.Span.collect "stats" @@ fun () ->
        let t = Core.Analyze.run ~jobs prog in
        (t, Callgraph.Call.reachable_from_main t.Core.Analyze.call)
      in
      let delta name =
        Obs.Metric.value_since ~since:before (Obs.Metric.counter name)
      in
      (* Scheduler shape: the coarse plan of the call-graph condensation
         at the requested job count (deterministic, cost-free to build)
         plus the runtime counters the solvers actually bumped.  A
         [chain] plan means a pooled run downgrades to fully-inline
         sequential execution and never spawns a domain. *)
      let scheduling =
        let cl = t.Core.Analyze.call.Callgraph.Call.scc.Graphs.Scc.levels in
        let plan = Par.Wavefront.plan cl ~jobs:(max 1 jobs) ~cost:(fun _ -> 1) in
        Obs.Json.Obj
          [
            ("jobs", Obs.Json.Int jobs);
            ( "recommended_domain_count",
              Obs.Json.Int (Domain.recommended_domain_count ()) );
            ("call_levels", Obs.Json.Int cl.Graphs.Scc.n_levels);
            ("call_max_width", Obs.Json.Int cl.Graphs.Scc.max_width);
            ("fused_levels", Obs.Json.Int plan.Par.Wavefront.fused_levels);
            ("plan_batches", Obs.Json.Int plan.Par.Wavefront.n_batches);
            ("chain", Obs.Json.Bool plan.Par.Wavefront.chain);
            ("chain_downgrades", Obs.Json.Int (delta "par.chain_downgrades"));
            ("parallel_batches", Obs.Json.Int (delta "par.batches"));
            ("parallel_tasks", Obs.Json.Int (delta "par.tasks"));
          ]
      in
      let gc = span.Obs.Span.gc in
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("program", Obs.Json.String prog.Ir.Prog.name);
                ( "graph",
                  graph_shape_json t.Core.Analyze.call t.Core.Analyze.binding );
                ("reachable", Obs.Json.Int (Bitvec.cardinal reach));
                ( "gc",
                  Obs.Json.Obj
                    [
                      ( "minor_collections",
                        Obs.Json.Int gc.Obs.Span.minor_collections );
                      ( "major_collections",
                        Obs.Json.Int gc.Obs.Span.major_collections );
                      ("promoted_words", Obs.Json.Int gc.Obs.Span.promoted_words);
                      ("top_heap_words", Obs.Json.Int gc.Obs.Span.top_heap_words);
                    ] );
                ("scheduling", scheduling);
                ("histograms", Obs.histograms_json ());
              ]))
    end
    else begin
    let call = Callgraph.Call.build prog in
    let binding = Callgraph.Binding.build (Ir.Info.make prog) in
    Format.printf "%a@.%a@." Callgraph.Call.pp_stats call Callgraph.Binding.pp_stats
      binding;
    let beta_scc = binding.Callgraph.Binding.scc in
    Format.printf "beta SCCs: %d; beta edges by level: %s@."
      beta_scc.Graphs.Scc.n_comps
      (String.concat " "
         (List.map
            (fun (lvl, count) -> Printf.sprintf "L%d=%d" lvl count)
            (Callgraph.Binding.edges_by_level binding)));
    let cl = call.Callgraph.Call.scc.Graphs.Scc.levels in
    let bl = beta_scc.Graphs.Scc.levels in
    Format.printf
      "condensation wavefront: call %d levels (max width %d); beta %d levels \
       (max width %d)@."
      cl.Graphs.Scc.n_levels cl.Graphs.Scc.max_width
      bl.Graphs.Scc.n_levels bl.Graphs.Scc.max_width;
    let reach = Callgraph.Call.reachable_from_main call in
    Format.printf "procedures reachable from main: %d / %d@." (Bitvec.cardinal reach)
      (Ir.Prog.n_procs prog);
    Format.printf "nesting depth dP = %d@." (Ir.Prog.max_level prog)
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Sizes of the call multi-graph C and binding multi-graph β.  With \
          --json, additionally run the analysis and report per-phase latency \
          histograms, GC statistics, and the coarse wavefront scheduling \
          shape at the requested --jobs.")
    Term.(const run $ file_arg $ trace_arg $ json_arg $ jobs_arg)

(* --- profile --- *)

let profile_cmd =
  let run file json trace_out jobs =
    let source = read_file file in
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let (prog, t), span =
      Obs.Span.collect "profile" @@ fun () ->
      let prog =
        match Frontend.Sema.compile ~file source with
        | Ok prog -> prog
        | Error errs ->
          Format.eprintf "@[<v>%a@]@."
            (Format.pp_print_list ~pp_sep:Format.pp_print_newline
               Frontend.Sema.pp_error)
            errs;
          exit 1
      in
      let t = Core.Analyze.run ?pool prog in
      (* Force the per-site §5 summaries so their cost is on the trace
         (Analyze.run computes them lazily per query). *)
      Obs.Span.with_ "sites" (fun () ->
          Ir.Prog.iter_sites prog (fun s ->
              ignore (Core.Analyze.mod_of_site t s.Ir.Prog.sid);
              ignore (Core.Analyze.use_of_site t s.Ir.Prog.sid)));
      (prog, t)
    in
    (match trace_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Obs.Json.to_string (Obs.trace_events_json [ span ]));
          output_char oc '\n');
      Format.eprintf "trace-event JSON written to %s@." path);
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("file", Obs.Json.String file);
                ("program", Obs.Json.String prog.Ir.Prog.name);
                ("graph", graph_shape_json t.Core.Analyze.call t.Core.Analyze.binding);
                ("trace", Obs.trace_json [ span ]);
              ]))
    else begin
      Format.printf "== profile: %s ==@." prog.Ir.Prog.name;
      Format.printf "%a@.%a@." Callgraph.Call.pp_stats t.Core.Analyze.call
        Callgraph.Binding.pp_stats t.Core.Analyze.binding;
      Format.printf "%a@." Obs.pp_trace [ span ]
    end
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Also write the span tree as Chrome trace-event JSON to $(docv) \
             (loadable in Perfetto or chrome://tracing): one complete event \
             per phase, nonzero metric deltas and GC counters as args.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the full analysis pipeline under tracing and report per-phase wall \
          time and operation-counter deltas (the paper's cost units).")
    Term.(const run $ file_arg $ json_arg $ trace_out_arg $ jobs_arg)

(* --- json-validate --- *)

let json_validate_cmd =
  let run () =
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec slurp () =
      let n = input stdin chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        slurp ()
      end
    in
    slurp ();
    match Obs.Json.parse (Buffer.contents buf) with
    | Ok _ -> print_endline "json: ok"
    | Error msg ->
      Format.eprintf "json: invalid (%s)@." msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "json-validate"
       ~doc:
         "Validate that stdin is well-formed JSON (used by 'make profile-smoke'; \
          no external jq needed).")
    Term.(const run $ const ())

(* --- gen --- *)

let gen_cmd =
  let run n depth seed globals formals density recursion =
    let rng = Random.State.make [| seed; 0x5e |] in
    let prog =
      Workload.Gen.generate rng
        {
          Workload.Gen.default with
          Workload.Gen.n_procs = n;
          n_globals = globals;
          max_formals = formals;
          binding_density = density;
          recursion;
          max_depth = depth;
        }
    in
    print_string (Ir.Pp.to_string prog)
  in
  let n = Arg.(value & opt int 20 & info [ "n"; "procs" ] ~doc:"Number of procedures.") in
  let depth = Arg.(value & opt int 1 & info [ "depth" ] ~doc:"Max nesting depth.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let globals = Arg.(value & opt int 12 & info [ "globals" ] ~doc:"Global variables.") in
  let formals =
    Arg.(value & opt int 5 & info [ "max-formals" ] ~doc:"Max formals per procedure.")
  in
  let density =
    Arg.(value & opt float 0.5 & info [ "binding-density" ]
           ~doc:"Probability a by-ref actual is itself a formal.")
  in
  let recursion =
    Arg.(value & opt float 0.2 & info [ "recursion" ] ~doc:"Recursion probability.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random MiniProc program on stdout.")
    Term.(const run $ n $ depth $ seed $ globals $ formals $ density $ recursion)

(* --- run --- *)

let run_cmd =
  let run file fuel =
    let prog = load file in
    let o = Interp.run ~fuel prog in
    List.iter (fun n -> Printf.printf "%d\n" n) o.Interp.output;
    if o.Interp.truncated then
      Format.eprintf "(truncated after %d statements)@." o.Interp.steps
  in
  let fuel =
    Arg.(value & opt int 1_000_000 & info [ "fuel" ] ~doc:"Statement budget.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a MiniProc program under the interpreter.")
    Term.(const run $ file_arg $ fuel)

(* --- check --- *)

let check_cmd =
  let run file fuel ptsto =
    let prog = load file in
    let t = Core.Analyze.run ~ptsto prog in
    let o = Interp.run ~fuel prog in
    let violations = ref 0 in
    let executed = ref 0 in
    let observed_total = ref 0 in
    let static_total = ref 0 in
    Ir.Prog.iter_sites prog (fun s ->
        let sid = s.Ir.Prog.sid in
        if o.Interp.calls_executed.(sid) > 0 then begin
          incr executed;
          let om = Interp.observed_mod o sid in
          let sm = Core.Analyze.mod_of_site t sid in
          observed_total := !observed_total + Bitvec.cardinal om;
          static_total := !static_total + Bitvec.cardinal sm;
          if not (Bitvec.subset om sm) then begin
            incr violations;
            Format.printf "UNSOUND at site %d (%s -> %s): observed %a, predicted %a@."
              sid
              (Ir.Prog.proc prog s.Ir.Prog.caller).Ir.Prog.pname
              (Ir.Prog.proc prog s.Ir.Prog.callee).Ir.Prog.pname
              (Ir.Pp.pp_var_set prog) om (Ir.Pp.pp_var_set prog) sm
          end;
          let ou = Interp.observed_use o sid in
          let su = Core.Analyze.use_of_site t sid in
          if not (Bitvec.subset ou su) then begin
            incr violations;
            Format.printf "UNSOUND USE at site %d: observed %a, predicted %a@." sid
              (Ir.Pp.pp_var_set prog) ou (Ir.Pp.pp_var_set prog) su
          end
        end);
    (match t.Core.Analyze.ptsto with
     | None -> ()
     | Some pt ->
       (* Dynamic dereference owners must lie inside the static targets,
          and dynamically overlapping ref formals inside the §5 pairs. *)
       List.iter
         (fun (p, d, owner) ->
           let ok =
             if owner >= 0 then List.mem owner (Ptsto.deref_targets pt p d)
             else Ptsto.deref_heap pt p d <> []
           in
           if not ok then begin
             incr violations;
             Format.printf
               "UNSOUND DEREF: *^%d of '%s' reached %s outside the static \
                points-to targets@."
               d
               (Ir.Pp.qualified_var_name prog p)
               (if owner >= 0 then
                  Printf.sprintf "'%s'" (Ir.Pp.qualified_var_name prog owner)
                else "heap storage")
           end)
         o.Interp.ptr_obs;
       List.iter
         (fun (pid, x, y) ->
           if not (Core.Alias.may_alias t.Core.Analyze.alias ~proc:pid x y)
           then begin
             incr violations;
             Format.printf
               "UNSOUND ALIAS: '%s' and '%s' shared storage in '%s' but the \
                §5 pairs miss them@."
               (Ir.Pp.qualified_var_name prog x)
               (Ir.Pp.qualified_var_name prog y)
               (Ir.Prog.proc prog pid).Ir.Prog.pname
           end)
         o.Interp.alias_obs);
    Format.printf
      "sites executed: %d / %d%s; soundness violations: %d@.observed MOD bits: %d; \
       predicted MOD bits: %d (precision %.0f%%)@."
      !executed (Ir.Prog.n_sites prog)
      (if o.Interp.truncated then " (run truncated)" else "")
      !violations !observed_total !static_total
      (if !static_total = 0 then 100.0
       else 100.0 *. float_of_int !observed_total /. float_of_int !static_total);
    if !violations > 0 then exit 1
  in
  let fuel =
    Arg.(value & opt int 200_000 & info [ "fuel" ] ~doc:"Statement budget.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differentially validate the analysis: execute the program and verify \
          observed effects (including pointer dereferences and dynamic \
          aliasing) are within the predicted static sets.")
    Term.(const run $ file_arg $ fuel $ ptsto_arg)

(* --- dot --- *)

let dot_cmd =
  let run file which output highlight =
    let prog = load file in
    let dot =
      match (which, highlight) with
      | `Call, None -> Callgraph.Dot.call_graph (Callgraph.Call.build prog)
      | `Call, Some `Lint ->
        let highlight = Lint.Engine.highlight (Core.Analyze.run prog) in
        Callgraph.Dot.call_graph ~highlight (Callgraph.Call.build prog)
      | `Binding, Some _ ->
        Format.eprintf "dot: --highlight applies to the call graph only@.";
        exit 1
      | `Binding, None ->
        Callgraph.Dot.binding_graph (Callgraph.Binding.build (Ir.Info.make prog))
    in
    match output with
    | None -> print_string dot
    | Some path -> Callgraph.Dot.write_file path dot
  in
  let which =
    Arg.(
      value
      & opt (enum [ ("call", `Call); ("binding", `Binding) ]) `Call
      & info [ "graph" ] ~doc:"Which graph: 'call' (C) or 'binding' (beta).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Output file (default stdout).")
  in
  let highlight =
    Arg.(
      value
      & opt (some (enum [ ("lint", `Lint) ])) None
      & info [ "highlight" ] ~docv:"WHAT"
          ~doc:
            "Decorate the call graph from analysis results: 'lint' fills pure \
             procedures (empty GMOD, no I/O) green and colours \
             alias-inflated call edges red.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the call or binding multi-graph in Graphviz format.")
    Term.(const run $ file_arg $ which $ output $ highlight)

(* --- constants --- *)

let constants_cmd =
  let run file =
    let prog = load file in
    let info = Ir.Info.make prog in
    let binding = Callgraph.Binding.build info in
    let imod = Frontend.Local.imod info in
    let rmod = Core.Rmod.solve binding ~imod in
    let imod_plus = Core.Imod_plus.compute info ~rmod ~imod in
    let r = Ipcp.analyze info ~imod_plus in
    Format.printf "%a@." (Ipcp.pp prog) r
  in
  Cmd.v
    (Cmd.info "constants"
       ~doc:
         "Interprocedural constant propagation: formal parameters bound to the \
          same constant at every call site.")
    Term.(const run $ file_arg)

(* --- inline --- *)

let inline_cmd =
  let run file max =
    let prog = load file in
    let after = Transform.Inline.inline_all_once prog ~max in
    (match Ir.Validate.run after with
    | Ok () -> ()
    | Error _ -> Format.eprintf "internal error: transformed program invalid@.");
    Format.eprintf "sites: %d -> %d@." (Ir.Prog.n_sites prog) (Ir.Prog.n_sites after);
    print_string (Ir.Pp.to_string after)
  in
  let max =
    Arg.(value & opt int 10 & info [ "max" ] ~doc:"Maximum number of sites to inline.")
  in
  Cmd.v
    (Cmd.info "inline"
       ~doc:"Inline call sites (lowest site id first) and print the program.")
    Term.(const run $ file_arg $ max)

(* --- bench-table --- *)

(* --- edit --- *)

(* Procedures and variables are matched by name across an edit script
   (ids are renumbered by procedure removal), so the delta tables read
   stably no matter how the tables shifted underneath.  The actual
   encoder lives in Serve.Delta — one implementation for this table,
   this command's --json, and the server's edit responses, so the two
   surfaces cannot drift. *)
let edit_cmd =
  let set_names = Serve.Delta.set_names in
  let run file script random seed incremental lint json jobs =
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let prog = load file in
    let steps =
      match (script, random) with
      | Some path, 0 -> (
        match Incremental.Script.parse prog (read_file path) with
        | Ok steps -> steps
        | Error e ->
          (* The failing line is data, not prose: --json consumers get
             it as a field. *)
          if json then
            print_endline
              (Obs.Json.to_string
                 (Obs.Json.Obj
                    [
                      ( "error",
                        Obs.Json.Obj
                          [
                            ("kind", Obs.Json.String "script-parse");
                            ("script", Obs.Json.String path);
                            ("line", Obs.Json.Int e.Incremental.Script.line);
                            ( "message",
                              Obs.Json.String e.Incremental.Script.message );
                          ] );
                    ]))
          else
            Format.eprintf "%s: %s@." path
              (Incremental.Script.error_to_string e);
          exit 1)
      | None, n when n > 0 ->
        Workload.Edits.gen
          ~rand:(Random.State.make [| seed; 0xed |])
          ~steps:n prog
      | _ ->
        Format.eprintf "edit: give exactly one of --script or --random@.";
        exit 1
    in
    let before = Core.Analyze.run ?pool prog in
    let lint_before = if lint then Some (Lint.Engine.run ?pool before) else None in
    let after, lint_after =
      if incremental then begin
        let engine = Incremental.Engine.of_analysis ?pool before in
        List.iter
          (fun (edit, _) -> ignore (Incremental.Engine.apply engine edit))
          steps;
        let lint_after =
          if lint then Some (Incremental.Engine.lint engine) else None
        in
        (Incremental.Engine.analysis engine, lint_after)
      end
      else begin
        let a =
          Core.Analyze.run ?pool
            (match List.rev steps with [] -> prog | (_, p) :: _ -> p)
        in
        (a, if lint then Some (Lint.Engine.run ?pool a) else None)
      end
    in
    let lint_delta =
      match (lint_before, lint_after) with
      | Some b, Some a -> Some (Lint.Engine.delta ~before:b ~after:a)
      | _ -> None
    in
    let edits_rendered =
      List.rev
        (fst
           (List.fold_left
              (fun (acc, p) (edit, p') ->
                (Incremental.Edit.to_string p edit :: acc, p'))
              ([], prog) steps))
    in
    let snap = Serve.Delta.snapshot before in
    let gmod_rows, guse_rows = Serve.Delta.rows snap after in
    let aprog = after.Core.Analyze.prog in
    let lint_json_fields = Serve.Delta.lint_fields lint_delta in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              ([
                ("program", Obs.Json.String prog.Ir.Prog.name);
                ( "edits",
                  Obs.Json.List
                    (List.map (fun e -> Obs.Json.String e) edits_rendered) );
                ("incremental", Obs.Json.Bool incremental);
                ("gmod_delta", Serve.Delta.rows_json gmod_rows);
                ("guse_delta", Serve.Delta.rows_json guse_rows);
                ( "sites",
                  Obs.Json.List
                    (List.concat_map
                       (fun (s : Ir.Prog.site) ->
                         let sid = s.Ir.Prog.sid in
                         [
                           Obs.Json.Obj
                             [
                               ("sid", Obs.Json.Int sid);
                               ( "caller",
                                 Obs.Json.String
                                   (Ir.Prog.proc aprog s.Ir.Prog.caller)
                                     .Ir.Prog.pname );
                               ( "callee",
                                 Obs.Json.String
                                   (Ir.Prog.proc aprog s.Ir.Prog.callee)
                                     .Ir.Prog.pname );
                               ( "mod",
                                 var_set_json aprog
                                   (Core.Analyze.mod_of_site after sid) );
                               ( "use",
                                 var_set_json aprog
                                   (Core.Analyze.use_of_site after sid) );
                             ];
                         ])
                       (Array.to_list aprog.Ir.Prog.sites)) );
              ]
              @ lint_json_fields)))
    else begin
      Format.printf "== edits (%d) ==@." (List.length edits_rendered);
      List.iteri (fun i e -> Format.printf "  %d. %s@." (i + 1) e) edits_rendered;
      Format.printf "%a" (Serve.Delta.pp_rows ~title:"GMOD") gmod_rows;
      Format.printf "%a" (Serve.Delta.pp_rows ~title:"GUSE") guse_rows;
      Format.printf "== sites after ==@.";
      Ir.Prog.iter_sites aprog (fun s ->
          let sid = s.Ir.Prog.sid in
          Format.printf "  s%-3d %s -> %s  MOD {%s}  USE {%s}@." sid
            (Ir.Prog.proc aprog s.Ir.Prog.caller).Ir.Prog.pname
            (Ir.Prog.proc aprog s.Ir.Prog.callee).Ir.Prog.pname
            (String.concat ","
               (set_names aprog (Core.Analyze.mod_of_site after sid)))
            (String.concat ","
               (set_names aprog (Core.Analyze.use_of_site after sid))));
      match lint_delta with
      | None -> ()
      | Some (added, removed) ->
        Format.printf "== lint delta ==@.";
        if added = [] && removed = [] then Format.printf "  (none)@."
        else begin
          List.iter
            (fun d -> Format.printf "  + @[<v>%a@]@." Lint.Diagnostic.pp d)
            added;
          List.iter
            (fun d -> Format.printf "  - @[<v>%a@]@." Lint.Diagnostic.pp d)
            removed
        end
    end
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"EDITS"
          ~doc:"Edit script (one edit per line; see docs/incremental.md).")
  in
  let random_arg =
    Arg.(
      value & opt int 0
      & info [ "random" ] ~docv:"N"
          ~doc:
            "Instead of --script, draw $(docv) random valid edits \
             (Workload.Edits generator).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed for --random.")
  in
  let incremental_arg =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:
            "Maintain the analysis incrementally across the script instead of \
             re-analysing from scratch at the end.  Output is identical by \
             construction; only the work done differs.")
  in
  let lint_arg =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Also lint before and after the script and report the diagnostic \
             delta (findings added and removed by the edits; positions are \
             dummy, matching is on code/scope/message).")
  in
  Cmd.v
    (Cmd.info "edit"
       ~doc:
         "Apply an edit script to a program and report the analysis deltas \
          (GMOD/GUSE by procedure, MOD/USE by call site).")
    Term.(
      const run $ file_arg $ script_arg $ random_arg $ seed_arg
      $ incremental_arg $ lint_arg $ json_arg $ jobs_arg)

(* --- serve --- *)

let serve_cmd =
  let run socket loads jobs =
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let server = Serve.Server.create ?pool () in
    List.iter
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          (match Serve.Server.load_file server ~name ~path with
          | Ok () -> ()
          | Error msg ->
            Format.eprintf "serve: --load %s: %s@." spec msg;
            exit 1)
        | None ->
          Format.eprintf "serve: --load expects NAME=FILE, got '%s'@." spec;
          exit 1)
      loads;
    match socket with
    | Some path -> Serve.Server.serve_socket server ~path
    | None -> Serve.Server.serve_channels server stdin stdout
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve a Unix socket at $(docv) instead of stdin/stdout.  The \
             socket is created (any stale file replaced) and removed on \
             shutdown.")
  in
  let load_arg =
    Arg.(
      value & opt_all string []
      & info [ "load" ] ~docv:"NAME=FILE"
          ~doc:
            "Pre-load a MiniProc file under a program name (repeatable).  \
             Compilation happens immediately; analysis is deferred to the \
             first query.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis server: line-delimited JSON requests (load / query \
          / edit / explain / stats / shutdown) against in-memory analyses \
          with per-client incremental edit sessions.  See docs/serve.md for \
          the protocol.")
    Term.(const run $ socket_arg $ load_arg $ jobs_arg)

let bench_table_cmd =
  let run sizes =
    Format.printf
      "# empirical linearity (experiment L1): operation counts vs problem size@.";
    Format.printf "# %6s %8s %8s %8s | %10s %12s | %12s %12s@." "N" "E" "N_beta"
      "E_beta" "rmod_steps" "per(Nb+Eb)" "gmod_vecops" "per(N+E)";
    List.iter
      (fun n ->
        let prog = Workload.Families.fortran_style ~seed:7 ~n in
        let info = Ir.Info.make prog in
        let call = Callgraph.Call.build prog in
        let binding = Callgraph.Binding.build info in
        let imod = Frontend.Local.imod info in
        let rmod = Core.Rmod.solve binding ~imod in
        let imod_plus = Core.Imod_plus.compute info ~rmod ~imod in
        let before = Obs.Metric.snapshot () in
        let _ = Core.Gmod_nested.solve info call ~imod_plus in
        let vec_ops =
          Obs.Metric.value_since ~since:before
            (Obs.Metric.counter "bitvec.vector_ops")
        in
        let nb = Callgraph.Binding.n_nodes binding
        and eb = Callgraph.Binding.n_edges binding in
        let e = Ir.Prog.n_sites prog in
        Format.printf "  %6d %8d %8d %8d | %10d %12.2f | %12d %12.2f@." n e nb eb
          rmod.Core.Rmod.steps
          (float_of_int rmod.Core.Rmod.steps /. float_of_int (max 1 (nb + eb)))
          vec_ops
          (float_of_int vec_ops /. float_of_int (max 1 (n + e))))
      sizes
  in
  let sizes =
    Arg.(value & opt (list int) [ 128; 256; 512; 1024; 2048; 4096; 8192 ]
           & info [ "sizes" ] ~doc:"Program sizes (procedure counts) to sweep.")
  in
  Cmd.v
    (Cmd.info "bench-table"
       ~doc:"Print operation counts demonstrating the linear-time bounds.")
    Term.(const run $ sizes)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "sidefx" ~version:"1.0.0"
             ~doc:"Interprocedural side-effect analysis in linear time (Cooper & Kennedy, PLDI 1988).")
          [ analyze_cmd; must_cmd; lint_cmd; explain_cmd; ptsto_cmd; sections_cmd; sections_report_cmd; dataflow_cmd; stats_cmd; profile_cmd; json_validate_cmd; gen_cmd; run_cmd; check_cmd; dot_cmd; constants_cmd; inline_cmd; edit_cmd; serve_cmd; bench_table_cmd ]))
