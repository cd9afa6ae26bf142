let run ?pool ?locs ?dataflow ?(rules = Rule.all) analysis =
  let prog = analysis.Core.Analyze.prog in
  let locs =
    match locs with Some l -> l | None -> Frontend.Locs.dummy prog
  in
  let handles =
    List.map (fun r -> Obs.Metric.counter r.Rule.metric) rules
  in
  Obs.Span.with_ "lint" (fun () ->
      let sections =
        if
          List.exists (fun r -> r.Rule.needs_sections) rules
          && Sections.Analyze_sections.applicable prog
        then
          Some
            (Obs.Span.with_ "lint.sections" (fun () ->
                 Sections.Analyze_sections.run ~info:analysis.Core.Analyze.info
                   ~call:analysis.Core.Analyze.call prog))
        else None
      in
      let dataflow =
        if List.exists (fun r -> r.Rule.needs_dataflow) rules then begin
          let drv =
            match dataflow with
            (* A caller-cached driver is only usable against the very
               analysis we are linting. *)
            | Some d when Dataflow.Driver.analysis d == analysis -> d
            | Some _ | None -> Dataflow.Driver.create ~locs analysis
          in
          (* Presolve every procedure before rules fan out: rules on a
             pool must only read the solution cache. *)
          Obs.Span.with_ "lint.dataflow" (fun () ->
              Dataflow.Driver.solve_all ?pool drv);
          Some drv
        end
        else None
      in
      let ctx = { Rule.analysis; locs; sections; dataflow } in
      let rules_a = Array.of_list rules in
      let results = Array.make (Array.length rules_a) [] in
      (match pool with
      | Some pool when Par.Pool.jobs pool > 1 ->
          Par.Pool.run pool
            (Array.mapi
               (fun i r (_slot : int) -> results.(i) <- r.Rule.run ctx)
               rules_a)
      | _ ->
          Array.iteri
            (fun i r ->
              Obs.Span.with_ ("lint." ^ r.Rule.name) (fun () ->
                  results.(i) <- r.Rule.run ctx))
            rules_a);
      List.iteri
        (fun i h -> Obs.Metric.add h (List.length results.(i)))
        handles;
      Array.to_list results |> List.concat
      |> List.sort_uniq Diagnostic.compare)

let report_json ~program ~rules findings =
  let count sev =
    List.length
      (List.filter (fun d -> d.Diagnostic.severity = sev) findings)
  in
  Obs.Json.Obj
    [
      ("program", Obs.Json.String program);
      ( "rules",
        Obs.Json.List
          (List.map (fun r -> Obs.Json.String r.Rule.name) rules) );
      ("findings", Obs.Json.List (List.map Diagnostic.to_json findings));
      ( "counts",
        Obs.Json.Obj
          [
            ("note", Obs.Json.Int (count Diagnostic.Note));
            ("warning", Obs.Json.Int (count Diagnostic.Warning));
            ("error", Obs.Json.Int (count Diagnostic.Error));
          ] );
    ]

module Keys = Set.Make (struct
  type t = string * string * string

  let compare = Stdlib.compare
end)

let dedup_by_key ds =
  let _, out =
    List.fold_left
      (fun (seen, out) d ->
        let k = Diagnostic.key d in
        if Keys.mem k seen then (seen, out)
        else (Keys.add k seen, d :: out))
      (Keys.empty, []) ds
  in
  List.rev out

let delta ~before ~after =
  let keys ds = Keys.of_list (List.map Diagnostic.key ds) in
  let kb = keys before and ka = keys after in
  let added =
    dedup_by_key
      (List.filter (fun d -> not (Keys.mem (Diagnostic.key d) kb)) after)
  in
  let removed =
    dedup_by_key
      (List.filter (fun d -> not (Keys.mem (Diagnostic.key d) ka)) before)
  in
  (added, removed)

let highlight analysis =
  {
    Callgraph.Dot.pure_procs = Rule.pure_procs analysis;
    inflated_sites = Rule.inflated_sites analysis;
  }
