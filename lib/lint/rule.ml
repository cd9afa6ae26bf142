module P = Ir.Prog
module A = Core.Analyze

type ctx = {
  analysis : Core.Analyze.t;
  locs : Frontend.Locs.t;
  sections : Sections.Analyze_sections.t option;
  dataflow : Dataflow.Driver.t option;
}

type t = {
  name : string;
  codes : string list;
  doc : string;
  metric : string;
  needs_sections : bool;
  needs_dataflow : bool;
  run : ctx -> Diagnostic.t list;
}

let name_of t vid = Ir.Pp.var_name t.A.prog vid
let qname_of t vid = Ir.Pp.qualified_var_name t.A.prog vid
let proc_name t pid = (P.proc t.A.prog pid).P.pname

(* --- witnesses --------------------------------------------------------

   When the analysis carries provenance ([sidefx explain] and the
   analysis server), every finding gets a rendered derivation chain via
   {!Core.Explain}.  Without provenance ([sidefx lint]) all witnesses
   are [[]] and the text report is unchanged.

   A witness is a lazy value, rendered only when a report prints the
   finding.  [witness ctx render] hands [render] all its thunk may
   read: the analysis (never mutated) and the location table, as a
   {!src}.  Anything else a witness needs is computed while the rule
   runs and captured as a value — never [ctx] itself: [ctx.dataflow]
   is the incremental engine's driver, which the next edit refreshes
   in place, so a thunk reading it would render the edited program's
   solutions and keep the old driver and sections alive.  Rules only
   build thunks; none is forced while rules run on a pool. *)

type src = { a : A.t; locs : Frontend.Locs.t }

let explain_on ctx = Option.is_some ctx.analysis.A.provenance

let witness ctx render =
  if explain_on ctx then begin
    let src = { a = ctx.analysis; locs = ctx.locs } in
    lazy (render src)
  end
  else Diagnostic.no_witness

let gmod_witness src ~side ~proc ~var =
  Option.value ~default:[]
    (Core.Explain.explain_gmod src.a ~locs:src.locs ~side ~proc ~var)

let rmod_witness src ~side ~var =
  Option.value ~default:[]
    (Core.Explain.explain_rmod src.a ~locs:src.locs ~side ~var)

let alias_witness src ~proc x y =
  Option.value ~default:[]
    (Core.Explain.explain_alias src.a ~locs:src.locs ~proc x y)

let must_witness src ~proc ~var =
  Option.value ~default:[]
    (Core.Explain.explain_must src.a ~locs:src.locs ~proc ~var)

(* Why is [v] in MOD(s) (side [`Mod]) or USE(s) (side [`Use])?  Walks
   the §5 summary cases — direct escape from the callee's GMOD/GUSE,
   reference projection through an RMOD/RUSE formal, argument
   evaluation, alias closure — each chained into the underlying fact's
   own witness. *)
let site_witness src ~side sid v =
  let t = src.a in
  let prog = t.A.prog in
  let s = P.site prog sid in
  let callee = P.proc prog s.P.callee in
  let gset = match side with `Mod -> t.A.gmod | `Use -> t.A.guse in
  let rsol = match side with `Mod -> t.A.rmod | `Use -> t.A.ruse in
  let action = match side with `Mod -> "modify" | `Use -> "read" in
  let direct v =
    if
      Bitvec.get gset.(s.P.callee) v
      && not (Bitvec.get (Ir.Info.local t.A.info s.P.callee) v)
    then
      Some
        (Printf.sprintf "call to '%s' at site %d may %s '%s' directly"
           callee.P.pname sid action (qname_of src.a v)
        :: gmod_witness src ~side ~proc:s.P.callee ~var:v)
    else begin
      let found = ref None in
      Array.iteri
        (fun i arg ->
          match arg with
          | P.Arg_ref lv
            when !found = None
                 && Ir.Expr.lvalue_base lv = v
                 && Core.Rmod.modified rsol callee.P.formals.(i) ->
            found := Some i
          | _ -> ())
        s.P.args;
      match !found with
      | Some i ->
        Some
          (Printf.sprintf
             "'%s' is passed by reference at site %d (arg %d), binding '%s'"
             (qname_of src.a v) sid i
             (qname_of src.a callee.P.formals.(i))
          :: rmod_witness src ~side ~var:callee.P.formals.(i))
      | None -> (
        match side with
        | `Use
          when List.mem v (Frontend.Local.luse_stmt t.A.info (Ir.Stmt.Call sid))
          ->
          Some
            [
              Printf.sprintf
                "'%s' is read when evaluating the arguments of site %d"
                (qname_of src.a v) sid;
            ]
        | _ -> None)
    end
  in
  match direct v with
  | Some lines -> lines
  | None -> (
    (* Alias closure: some member of the direct set aliases [v]. *)
    let dset =
      match side with
      | `Mod -> A.dmod_of_site t sid
      | `Use -> A.duse_of_site t sid
    in
    let x =
      List.find_opt
        (fun x -> Bitvec.get dset x)
        (Core.Alias.aliases_of t.A.alias ~proc:s.P.caller ~var:v)
    in
    match x with
    | None -> []
    | Some x ->
      alias_witness src ~proc:s.P.caller x v
      @ (match direct x with Some lines -> lines | None -> []))

(* Transitive I/O: a procedure whose body contains a read/write
   statement, or that (transitively) calls one that does.  GMOD is
   blind to I/O effects, so the pure-proc rule must mask these out. *)
let io_procs prog =
  let io = Array.make (P.n_procs prog) false in
  P.iter_procs prog (fun pr ->
      Ir.Stmt.iter
        (fun st ->
          match st with
          | Ir.Stmt.Read _ | Ir.Stmt.Write _ -> io.(pr.P.pid) <- true
          | _ -> ())
        pr.P.body);
  let changed = ref true in
  while !changed do
    changed := false;
    P.iter_sites prog (fun s ->
        if io.(s.P.callee) && not io.(s.P.caller) then begin
          io.(s.P.caller) <- true;
          changed := true
        end)
  done;
  io

(* SFX001 — by-reference formals no invocation modifies or uses. *)
let unused_formal ctx =
  let t = ctx.analysis in
  let out = ref [] in
  P.iter_vars t.A.prog (fun v ->
      match v.P.kind with
      | P.Formal { proc; mode = P.By_ref; index } ->
          if
            (not (Core.Rmod.modified t.A.rmod v.P.vid))
            && not (Core.Rmod.modified t.A.ruse v.P.vid)
          then
            out :=
              {
                Diagnostic.code = "SFX001";
                rule = "unused-formal";
                severity = Diagnostic.Warning;
                loc = Frontend.Locs.var ctx.locs v.P.vid;
                scope = proc_name t proc;
                message =
                  Printf.sprintf
                    "by-reference formal '%s' (parameter %d) is never \
                     modified or used by any invocation"
                    v.P.vname (index + 1);
                hint = Some "drop the parameter, or pass it by value";
                witness =
                  witness ctx (fun src ->
                      [
                        Printf.sprintf
                          "no β path from '%s' reaches a definition or use: \
                           its RMOD and RUSE bits are both unset"
                          (qname_of src.a v.P.vid);
                      ]);
              }
              :: !out
      | _ -> ());
  !out

(* SFX002 — globals some procedure writes but none ever reads. *)
let write_only_global ctx =
  let t = ctx.analysis in
  let written = A.modified_anywhere t in
  let read = A.used_anywhere t in
  let out = ref [] in
  Bitvec.iter
    (fun vid ->
      if not (Bitvec.get read vid) then
        out :=
          {
            Diagnostic.code = "SFX002";
            rule = "write-only-global";
            severity = Diagnostic.Warning;
            loc = Frontend.Locs.var ctx.locs vid;
            scope = t.A.prog.P.name;
            message =
              Printf.sprintf "global '%s' is written but never read"
                (name_of t vid);
            hint = Some "delete the variable and the stores into it";
            witness =
              witness ctx (fun src ->
                  let writer = ref None in
                  P.iter_procs src.a.A.prog (fun pr ->
                      if
                        !writer = None
                        && Bitvec.get src.a.A.gmod.(pr.P.pid) vid
                      then writer := Some pr.P.pid);
                  (match !writer with
                  | Some pid -> gmod_witness src ~side:`Mod ~proc:pid ~var:vid
                  | None -> [])
                  @ [
                      Printf.sprintf
                        "'%s' appears in no GUSE set: nothing ever reads it"
                        (name_of src.a vid);
                    ]);
          }
          :: !out)
    (Bitvec.inter written (Ir.Info.global t.A.info));
  !out

(* "Pure" here means no effect visible outside the invocation except
   through the reference formals: GMOD(p) ⊆ LOCAL(p).  (This repo's
   GMOD convention keeps a procedure's own modified formals in the set,
   so plain emptiness would be too strict.)  I/O is invisible to GMOD
   and masked separately. *)
let pure_procs t =
  let io = io_procs t.A.prog in
  let out = ref [] in
  P.iter_procs t.A.prog (fun pr ->
      let pid = pr.P.pid in
      if
        pid <> t.A.prog.P.main
        && Bitvec.subset t.A.gmod.(pid) (Ir.Info.local t.A.info pid)
        && not io.(pid)
      then out := pid :: !out);
  List.rev !out

(* SFX003 — GMOD(p) escapes nothing, and no transitive I/O. *)
let pure_proc ctx =
  let t = ctx.analysis in
  List.map
    (fun pid ->
      let writes_formal =
        Core.Rmod.rmod_of_proc t.A.rmod pid <> []
      in
      {
        Diagnostic.code = "SFX003";
        rule = "pure-proc";
        severity = Diagnostic.Note;
        loc = Frontend.Locs.proc ctx.locs pid;
        scope = proc_name t pid;
        message =
          Printf.sprintf "procedure '%s' has no global side effects"
            (proc_name t pid);
        hint =
          Some
            (if writes_formal then
               "it writes only through its reference formals; calls with \
                disjoint actuals can run in parallel"
             else "candidate for memoization and parallel execution");
        witness =
          witness ctx (fun src ->
              Printf.sprintf
                "GMOD(%s) ⊆ LOCAL(%s): no write escapes the invocation, \
                 and no transitive callee performs I/O"
                (proc_name src.a pid) (proc_name src.a pid)
              ::
              (if writes_formal then
                 List.concat_map
                   (fun f -> rmod_witness src ~side:`Mod ~var:f)
                   (Core.Rmod.rmod_of_proc src.a.A.rmod pid)
               else []));
      })
    (pure_procs t)

let inflated_sites t =
  let out = ref [] in
  P.iter_sites t.A.prog (fun s ->
      let dmod = A.dmod_of_site t s.P.sid in
      let m = Core.Alias.close t.A.alias ~proc:s.P.caller dmod in
      if not (Bitvec.subset m dmod) then out := s.P.sid :: !out);
  List.rev !out

(* SFX004 — sites where the §5 alias closure strictly enlarges DMOD. *)
let alias_inflation ctx =
  let t = ctx.analysis in
  List.concat_map
    (fun sid ->
      let s = P.site t.A.prog sid in
      let dmod = A.dmod_of_site t sid in
      let added = Bitvec.diff (Core.Alias.close t.A.alias ~proc:s.P.caller dmod) dmod in
      Bitvec.fold
        (fun y acc ->
          let partner =
            List.find_opt
              (fun x -> Bitvec.get dmod x)
              (Core.Alias.aliases_of t.A.alias ~proc:s.P.caller ~var:y)
          in
          let message =
            match partner with
            | Some x ->
                Printf.sprintf
                  "call to '%s' may modify '%s' only through alias pair <%s, \
                   %s>"
                  (proc_name t s.P.callee) (qname_of t y) (qname_of t x)
                  (qname_of t y)
            | None ->
                Printf.sprintf
                  "call to '%s' may modify '%s' only through aliasing"
                  (proc_name t s.P.callee) (qname_of t y)
          in
          {
            Diagnostic.code = "SFX004";
            rule = "alias-inflation";
            severity = Diagnostic.Warning;
            loc = Frontend.Locs.site ctx.locs sid;
            scope = proc_name t s.P.caller;
            message;
            hint =
              Some
                "the alias pair widens MOD beyond DMOD; passing distinct \
                 variables restores precision";
            witness = witness ctx (fun src -> site_witness src ~side:`Mod sid y);
          }
          :: acc)
        added []
      |> List.rev)
    (inflated_sites t)

(* SFX005 — one call passing aliased storage at two by-reference
   positions while a bound formal is in RMOD. *)
let aliased_actuals ctx =
  let t = ctx.analysis in
  let out = ref [] in
  P.iter_sites t.A.prog (fun s ->
      let callee = P.proc t.A.prog s.P.callee in
      let refs = ref [] in
      Array.iteri
        (fun i arg ->
          match arg with
          | P.Arg_ref lv -> refs := (i, Ir.Expr.lvalue_base lv) :: !refs
          | P.Arg_value _ -> ())
        s.P.args;
      let refs = List.rev !refs in
      List.iteri
        (fun k (i, bi) ->
          List.iteri
            (fun k' (j, bj) ->
              if k' > k then
                let aliased =
                  bi = bj
                  || Core.Alias.may_alias t.A.alias ~proc:s.P.caller bi bj
                in
                let fi = callee.P.formals.(i) and fj = callee.P.formals.(j) in
                let modified =
                  Core.Rmod.modified t.A.rmod fi
                  || Core.Rmod.modified t.A.rmod fj
                in
                if aliased && modified then
                  let wf =
                    if Core.Rmod.modified t.A.rmod fi then fi else fj
                  in
                  out :=
                    {
                      Diagnostic.code = "SFX005";
                      rule = "aliased-actuals";
                      severity = Diagnostic.Error;
                      loc = Frontend.Locs.site ctx.locs s.P.sid;
                      scope = proc_name t s.P.caller;
                      message =
                        Printf.sprintf
                          "arguments %d and %d of call to '%s' may name the \
                           same location ('%s' and '%s'), and '%s' modifies \
                           formal '%s'"
                          (i + 1) (j + 1) callee.P.pname (qname_of t bi)
                          (qname_of t bj) callee.P.pname (name_of t wf);
                      hint =
                        Some
                          "copy one argument into a temporary before the call";
                      witness =
                        witness ctx (fun src ->
                            (if bi = bj then
                               [
                                 Printf.sprintf
                                   "arguments %d and %d both pass '%s'"
                                   (i + 1) (j + 1) (qname_of src.a bi);
                               ]
                             else alias_witness src ~proc:s.P.caller bi bj)
                            @ rmod_witness src ~side:`Mod ~var:wf);
                    }
                    :: !out)
            refs)
        refs);
  List.rev !out

(* SFX006 / SFX007 — §6 loop verdicts, for loops that call procedures. *)
let loop_parallel ctx =
  match ctx.sections with
  | None -> []
  | Some sec ->
      let t = ctx.analysis in
      let out = ref [] in
      P.iter_procs t.A.prog (fun pr ->
          let ord = ref 0 in
          Ir.Stmt.iter
            (fun st ->
              match st with
              | Ir.Stmt.For (ivar, _, _, body) ->
                  let k = !ord in
                  incr ord;
                  if Ir.Stmt.call_sites body <> [] then begin
                    let loc = Frontend.Locs.loop ctx.locs ~proc:pr.P.pid k in
                    let scope = pr.P.pname in
                    let mod_map, use_map =
                      Sections.Analyze_sections.loop_summary sec
                        ~proc:pr.P.pid ~ivar ~body
                    in
                    let v =
                      Sections.Deps.analyze_loop t.A.prog ~ivar ~mod_map
                        ~use_map
                    in
                    if v.Sections.Deps.parallel then
                      out :=
                        {
                          Diagnostic.code = "SFX007";
                          rule = "loop-parallel";
                          severity = Diagnostic.Note;
                          loc;
                          scope;
                          message =
                            Printf.sprintf
                              "loop over '%s' is parallelisable: iterations \
                               are provably independent"
                              (name_of t ivar);
                          hint = Some "candidate for data decomposition";
                          witness =
                            witness ctx (fun _ ->
                                [
                                  "every cross-iteration effect of the \
                                   body's calls is confined to element \
                                   sections indexed by the loop variable";
                                ]);
                        }
                        :: !out
                    else
                      let conflicts =
                        List.map
                          (fun (vid, reason) ->
                            Printf.sprintf "'%s' (%s)" (qname_of t vid)
                              reason)
                          v.Sections.Deps.conflicts
                        |> String.concat "; "
                      in
                      out :=
                        {
                          Diagnostic.code = "SFX006";
                          rule = "loop-parallel";
                          severity = Diagnostic.Warning;
                          loc;
                          scope;
                          message =
                            Printf.sprintf
                              "loop over '%s' is not parallelisable: %s"
                              (name_of t ivar) conflicts;
                          hint =
                            Some
                              "privatise the conflicting variables or split \
                               the loop";
                          witness =
                            (match v.Sections.Deps.conflicts with
                            | (cv, _) :: _ ->
                              witness ctx (fun src ->
                                  let site_with pred =
                                    List.find_opt pred (Ir.Stmt.call_sites body)
                                  in
                                  let lead =
                                    Printf.sprintf "iterations conflict on '%s':"
                                      (qname_of src.a cv)
                                  in
                                  match
                                    site_with (fun sid ->
                                        Bitvec.get (A.mod_of_site src.a sid) cv)
                                  with
                                  | Some sid ->
                                    lead :: site_witness src ~side:`Mod sid cv
                                  | None -> (
                                    match
                                      site_with (fun sid ->
                                          Bitvec.get (A.use_of_site src.a sid) cv)
                                    with
                                    | Some sid ->
                                      lead :: site_witness src ~side:`Use sid cv
                                    | None -> [ lead ]))
                            | [] -> Diagnostic.no_witness);
                        }
                        :: !out
                  end
              | _ -> ())
            pr.P.body);
      List.rev !out

(* SFX008 — scalar stores no execution path can read.  The liveness
   solver already treats calls as transparent (gen = the site's
   alias-closed USE, kill = its must-DMOD scalars), so a store is
   flagged only when neither the variable nor any §5 alias of it is
   live after the assignment: a value a callee might still read through
   an aliased name keeps the store. *)
let dead_store ctx =
  match ctx.dataflow with
  | None -> []
  | Some drv ->
    let t = ctx.analysis in
    let prog = t.A.prog in
    let tf = Dataflow.Driver.transfer drv in
    let out = ref [] in
    P.iter_procs prog (fun pr ->
        let pid = pr.P.pid in
        let sol = Dataflow.Driver.solution drv pid in
        let aliases = Hashtbl.create 8 in
        let aliases_of v =
          match Hashtbl.find_opt aliases v with
          | Some l -> l
          | None ->
            let l = Core.Alias.aliases_of t.A.alias ~proc:pid ~var:v in
            Hashtbl.add aliases v l;
            l
        in
        for b = 0 to Dataflow.Cfg.n_blocks sol.Dataflow.Driver.cfg - 1 do
          out :=
            Dataflow.Live.fold_instrs sol.Dataflow.Driver.live tf ~block:b
              ~init:!out ~f:(fun acc ~live_after ~ord ins ->
                match ins with
                | Dataflow.Cfg.Assign (Ir.Expr.Lvar v, _)
                  when (not (Ir.Types.is_array (P.var prog v).P.vty))
                       && (not (Bitvec.get live_after v))
                       && List.for_all
                            (fun w -> not (Bitvec.get live_after w))
                            (aliases_of v) ->
                  {
                    Diagnostic.code = "SFX008";
                    rule = "dead-store";
                    severity = Diagnostic.Warning;
                    loc = Frontend.Locs.stmt ctx.locs ~proc:pid ord;
                    scope = proc_name t pid;
                    message =
                      Printf.sprintf
                        "value stored to '%s' is never read: every path \
                         definitely overwrites it or ends its lifetime first"
                        (name_of t v);
                    hint = Some "delete the store, or use the value before it is overwritten";
                    witness =
                      witness ctx (fun src ->
                          [
                            Printf.sprintf
                              "'%s' is not live after this store, and no \
                               §5 alias of it is"
                              (name_of src.a v);
                          ]);
                  }
                  :: acc
                | _ -> acc)
        done);
    !out

(* SFX009 — a call both reads and writes a location the caller still
   needs afterwards: USE(s) ∩ MOD(s) restricted to what is live after
   the call.  Pure ordering information — the kind of read-modify-write
   a caller could batch across a loop instead of paying per call. *)
let rmw_hint ctx =
  match ctx.dataflow with
  | None -> []
  | Some drv ->
    let t = ctx.analysis in
    let prog = t.A.prog in
    let tf = Dataflow.Driver.transfer drv in
    let out = ref [] in
    P.iter_procs prog (fun pr ->
        let pid = pr.P.pid in
        let sol = Dataflow.Driver.solution drv pid in
        for b = 0 to Dataflow.Cfg.n_blocks sol.Dataflow.Driver.cfg - 1 do
          out :=
            Dataflow.Live.fold_instrs sol.Dataflow.Driver.live tf ~block:b
              ~init:!out ~f:(fun acc ~live_after ~ord:_ ins ->
                match ins with
                | Dataflow.Cfg.Call sid ->
                  let rmw =
                    Bitvec.inter
                      (Dataflow.Transfer.use_of_site tf sid)
                      (Dataflow.Transfer.mod_of_site tf sid)
                  in
                  ignore (Bitvec.inter_into ~src:live_after ~dst:rmw);
                  if Bitvec.is_empty rmw then acc
                  else
                    let rmw_vars = Bitvec.to_list rmw in
                    let callee =
                      (P.proc prog (P.site prog sid).P.callee).P.pname
                    in
                    {
                      Diagnostic.code = "SFX009";
                      rule = "rmw-hint";
                      severity = Diagnostic.Note;
                      loc = Frontend.Locs.site ctx.locs sid;
                      scope = proc_name t pid;
                      message =
                        Printf.sprintf
                          "call to '%s' reads and writes %s, and the caller \
                           reads the result: a read-modify-write the caller \
                           could batch"
                          callee
                          (String.concat ", "
                             (List.map
                                (fun v -> Printf.sprintf "'%s'" (qname_of t v))
                                rmw_vars));
                      hint =
                        Some
                          "hoist the read or batch the updates to cut \
                           call-boundary traffic";
                      witness =
                        (match rmw_vars with
                        | w :: _ ->
                          witness ctx (fun src ->
                              (Printf.sprintf "the call reads '%s':" (qname_of src.a w)
                              :: site_witness src ~side:`Use sid w)
                              @ (Printf.sprintf "the call writes '%s':"
                                   (qname_of src.a w)
                                :: site_witness src ~side:`Mod sid w)
                              @ [
                                  Printf.sprintf "'%s' is live after the call"
                                    (qname_of src.a w);
                                ])
                        | [] -> Diagnostic.no_witness);
                    }
                    :: acc
                | _ -> acc)
        done);
    !out

(* SFX010 — pointer variables whose value never feeds a dereference.
   Direct syntactic absence is not enough: [p := &x; r := p; g0 := *r]
   dereferences [p]'s value through [r], so the rule closes "feeds a
   dereference" backwards over pointer copies (assignments and call
   bindings) before flagging.  Intermediate hops of a multi-level chain
   ([**pp] reads through whatever [pp] points at) are resolved with the
   analysis' points-to projection. *)
let undereferenced_ptr ctx =
  let t = ctx.analysis in
  let prog = t.A.prog in
  let any_ptr = ref false in
  P.iter_vars prog (fun v ->
      if Ir.Types.is_ptr v.P.vty then any_ptr := true);
  if not !any_ptr then []
  else begin
    let is_ptr v = Ir.Types.is_ptr (P.var prog v).P.vty in
    let feeds = Array.make (P.n_vars prog) false in
    let copies = ref [] in
    let copy dst src =
      if is_ptr dst && is_ptr src then copies := (dst, src) :: !copies
    in
    let mark_deref p d =
      feeds.(p) <- true;
      for d' = 1 to d - 1 do
        List.iter (fun v -> if is_ptr v then feeds.(v) <- true) (Ir.Info.deref t.A.info p d')
      done
    in
    let rec expr = function
      | Ir.Expr.Deref (p, d) -> mark_deref p d
      | Ir.Expr.Binop (_, a, b) ->
        expr a;
        expr b
      | Ir.Expr.Unop (_, a) -> expr a
      | Ir.Expr.Index (_, idx) -> List.iter expr idx
      | Ir.Expr.Int _ | Ir.Expr.Bool _ | Ir.Expr.Var _ | Ir.Expr.Addr _
      | Ir.Expr.New _ ->
        ()
    in
    let lvalue = function
      | Ir.Expr.Lderef (p, d) -> mark_deref p d
      | Ir.Expr.Lindex (_, idx) -> List.iter expr idx
      | Ir.Expr.Lvar _ -> ()
    in
    P.iter_procs prog (fun pr ->
        Ir.Stmt.iter
          (fun st ->
            match st with
            | Ir.Stmt.Assign (lv, e) -> (
              lvalue lv;
              expr e;
              match (lv, e) with
              | Ir.Expr.Lvar d, Ir.Expr.Var s -> copy d s
              | _ -> ())
            | Ir.Stmt.If (c, _, _) | Ir.Stmt.While (c, _) -> expr c
            | Ir.Stmt.For (_, lo, hi, _) ->
              expr lo;
              expr hi
            | Ir.Stmt.Read lv -> lvalue lv
            | Ir.Stmt.Write e -> expr e
            | Ir.Stmt.Call _ -> ())
          pr.P.body);
    P.iter_sites prog (fun s ->
        let callee = P.proc prog s.P.callee in
        Array.iteri
          (fun i arg ->
            let f = callee.P.formals.(i) in
            match arg with
            | P.Arg_value e -> (
              expr e;
              match e with Ir.Expr.Var src -> copy f src | _ -> ())
            | P.Arg_ref (Ir.Expr.Lvar b) ->
              (* one cell, two names: a dereference of either feeds both *)
              copy f b;
              copy b f
            | P.Arg_ref lv -> lvalue lv)
          s.P.args);
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (dst, src) ->
          if feeds.(dst) && not feeds.(src) then begin
            feeds.(src) <- true;
            changed := true
          end)
        !copies
    done;
    let out = ref [] in
    P.iter_vars prog (fun v ->
        if Ir.Types.is_ptr v.P.vty && not feeds.(v.P.vid) then
          out :=
            {
              Diagnostic.code = "SFX010";
              rule = "undereferenced-ptr";
              severity = Diagnostic.Warning;
              loc = Frontend.Locs.var ctx.locs v.P.vid;
              scope =
                (match v.P.kind with
                | P.Global -> prog.P.name
                | P.Local pid | P.Formal { proc = pid; _ } ->
                  proc_name t pid);
              message =
                Printf.sprintf
                  "pointer '%s' is never dereferenced: no use of its value \
                   ever reaches a '*'"
                  v.P.vname;
              hint =
                Some "delete the pointer, or dereference it where it is used";
              witness =
                witness ctx (fun src ->
                    [
                      Printf.sprintf
                        "'%s' appears in no dereference, and no pointer copied \
                         from it does either"
                        (qname_of src.a v.P.vid);
                    ]);
            }
            :: !out);
    List.rev !out
  end

(* SFX011 — a store through a pointer that may strike a by-reference
   formal of the enclosing procedure: the caller's actual changes with
   no textual mention of the formal near the store.  Fires when the
   points-to targets of the written dereference contain the formal
   itself (via name equivalence) or a §5 alias of it. *)
let ptr_formal_store ctx =
  let t = ctx.analysis in
  let prog = t.A.prog in
  let out = ref [] in
  P.iter_procs prog (fun pr ->
      let pid = pr.P.pid in
      let ref_formals =
        Array.to_list pr.P.formals
        |> List.filter (fun f ->
               match (P.var prog f).P.kind with
               | P.Formal { mode = P.By_ref; _ } -> true
               | _ -> false)
      in
      if ref_formals <> [] then begin
        let ord = ref (-1) in
        Ir.Stmt.iter
          (fun st ->
            incr ord;
            match st with
            | Ir.Stmt.Assign (Ir.Expr.Lderef (p, d), _)
            | Ir.Stmt.Read (Ir.Expr.Lderef (p, d)) ->
              let targets = Ir.Info.deref t.A.info p d in
              let hit =
                List.find_map
                  (fun f ->
                    if List.mem f targets then Some (f, `Direct)
                    else
                      match
                        List.find_opt
                          (fun tv ->
                            Core.Alias.may_alias t.A.alias ~proc:pid tv f)
                          targets
                      with
                      | Some tv -> Some (f, `Alias tv)
                      | None -> None)
                  ref_formals
              in
              (match hit with
              | None -> ()
              | Some (f, how) ->
                out :=
                  {
                    Diagnostic.code = "SFX011";
                    rule = "ptr-formal-store";
                    severity = Diagnostic.Warning;
                    loc = Frontend.Locs.stmt ctx.locs ~proc:pid !ord;
                    scope = proc_name t pid;
                    message =
                      Printf.sprintf
                        "store through '%s' may modify by-reference formal \
                         '%s': the caller's actual changes without naming it"
                        (name_of t p) (name_of t f);
                    hint =
                      Some
                        "write the formal directly, or document that the \
                         pointer aims at it";
                    witness =
                      witness ctx (fun src ->
                          Printf.sprintf
                            "points-to: the %d-fold dereference of '%s' may \
                             name {%s}"
                            d (qname_of src.a p)
                            (String.concat ", " (List.map (qname_of src.a) targets))
                          ::
                          (match how with
                          | `Direct -> []
                          | `Alias tv -> alias_witness src ~proc:pid tv f));
                  }
                  :: !out)
            | _ -> ())
          pr.P.body
      end);
  List.rev !out

(* SFX012 — reads no definition can reach, across call sites.  The
   reaching-definition universe already treats calls as writers (gen =
   the site's MOD, kill = the callee's projected MUSTMOD), so "no
   reaching definition" means: on every path from procedure entry,
   nothing — not even a callee — has written the variable yet.  Two
   shapes fire: a direct read of an unwritten scalar local, and an
   unwritten scalar local passed by reference to a callee that consumes
   the bound formal's incoming value (the formal is live at the
   callee's entry: some path reads it before any definite write). *)
let use_before_init ctx =
  match ctx.dataflow with
  | None -> []
  | Some drv ->
    let t = ctx.analysis in
    let prog = t.A.prog in
    let tf = Dataflow.Driver.transfer drv in
    let out = ref [] in
    P.iter_procs prog (fun pr ->
        let pid = pr.P.pid in
        let sol = Dataflow.Driver.solution drv pid in
        let reach = sol.Dataflow.Driver.reach in
        let candidate v =
          (match (P.var prog v).P.kind with
          | P.Local owner -> owner = pid
          | P.Global | P.Formal _ -> false)
          && not (Ir.Types.is_array (P.var prog v).P.vty)
        in
        let unwritten reach_before v =
          List.for_all
            (fun d -> not (Bitvec.get reach_before d))
            (Dataflow.Reach.defs_of_var reach v)
        in
        let direct_diag ~ord v =
          {
            Diagnostic.code = "SFX012";
            rule = "use-before-init";
            severity = Diagnostic.Warning;
            loc = Frontend.Locs.stmt ctx.locs ~proc:pid ord;
            scope = proc_name t pid;
            message =
              Printf.sprintf
                "'%s' may be read before initialization: no definition \
                 reaches this statement"
                (name_of t v);
            hint = Some "assign the variable on every path before it is read";
            witness =
              witness ctx (fun src ->
                  [
                    Printf.sprintf
                      "no store to '%s' — and no call whose MOD set contains \
                       it — lies on any path from %s's entry to this statement"
                      (name_of src.a v) (proc_name src.a pid);
                  ]);
          }
        in
        let byref_diag ~sid v f =
          let callee_pid = (P.site prog sid).P.callee in
          {
            Diagnostic.code = "SFX012";
            rule = "use-before-init";
            severity = Diagnostic.Warning;
            loc = Frontend.Locs.site ctx.locs sid;
            scope = proc_name t pid;
            message =
              Printf.sprintf
                "'%s' is passed by reference before initialization, and \
                 '%s' may read formal '%s' before definitely writing it"
                (name_of t v)
                (proc_name t callee_pid)
                (name_of t f);
            hint =
              Some "assign the variable before the call, or make the callee \
                    write the formal first";
            witness =
              witness ctx (fun src ->
                  Printf.sprintf
                    "no definition of '%s' reaches site %d, and '%s' is live \
                     at %s's entry"
                    (name_of src.a v) sid (qname_of src.a f) (proc_name src.a callee_pid)
                  :: rmod_witness src ~side:`Use ~var:f);
          }
        in
        for b = 0 to Dataflow.Cfg.n_blocks sol.Dataflow.Driver.cfg - 1 do
          out :=
            Dataflow.Reach.fold_instrs reach tf ~block:b ~init:!out
              ~f:(fun acc ~reach_before ~ord ins ->
                match ins with
                | Dataflow.Cfg.Call sid ->
                  let s = P.site prog sid in
                  let callee = P.proc prog s.P.callee in
                  let acc = ref acc in
                  let flag_reads vs =
                    List.iter
                      (fun v ->
                        if candidate v && unwritten reach_before v then
                          acc := direct_diag ~ord v :: !acc)
                      vs
                  in
                  Array.iteri
                    (fun i arg ->
                      match arg with
                      | P.Arg_value e ->
                        flag_reads (Frontend.Local.expr_reads t.A.info e)
                      | P.Arg_ref (Ir.Expr.Lvar x) ->
                        if candidate x && unwritten reach_before x then begin
                          let f = callee.P.formals.(i) in
                          let csol = Dataflow.Driver.solution drv s.P.callee in
                          let entry_live =
                            Dataflow.Live.live_in csol.Dataflow.Driver.live
                              csol.Dataflow.Driver.cfg.Dataflow.Cfg.entry
                          in
                          if Bitvec.get entry_live f then
                            acc := byref_diag ~sid x f :: !acc
                        end
                      | P.Arg_ref lv ->
                        flag_reads
                          (Frontend.Local.lvalue_addr_reads t.A.info lv))
                    s.P.args;
                  !acc
                | _ ->
                  let uses = Bitvec.create (P.n_vars prog) in
                  Dataflow.Transfer.add_use tf uses ins;
                  Bitvec.fold
                    (fun v acc ->
                      if candidate v && unwritten reach_before v then
                        direct_diag ~ord v :: acc
                      else acc)
                    uses acc)
        done);
    List.rev !out

(* SFX013 — a store whose value a callee definitely overwrites before
   any use: between the store and a later call in the same block there
   is no read of the variable, the call's projected MUSTMOD kills it,
   and the call itself does not read it.  The witness walks the
   callee's MUSTMOD derivation (docs/mustmod.md). *)
let redundant_store ctx =
  match ctx.dataflow with
  | None -> []
  | Some drv ->
    let t = ctx.analysis in
    let prog = t.A.prog in
    let tf = Dataflow.Driver.transfer drv in
    let nv = P.n_vars prog in
    let out = ref [] in
    (* The callee-side variable the kill of [v] projects from: [v]
       itself when it passes through the binding (a visible non-local),
       else the by-reference formal bound to [v] at the site. *)
    let pre_image sid v =
      let s = P.site prog sid in
      let mm = Dataflow.Transfer.must_mod tf s.P.callee in
      if Bitvec.get mm v then Some v
      else begin
        let callee = P.proc prog s.P.callee in
        let found = ref None in
        Array.iteri
          (fun k arg ->
            match arg with
            | P.Arg_ref (Ir.Expr.Lvar b)
              when b = v && !found = None
                   && Bitvec.get mm callee.P.formals.(k) ->
              found := Some callee.P.formals.(k)
            | _ -> ())
          s.P.args;
        !found
      end
    in
    P.iter_procs prog (fun pr ->
        let pid = pr.P.pid in
        let sol = Dataflow.Driver.solution drv pid in
        let emit ~ord v sid =
          let callee_pid = (P.site prog sid).P.callee in
          out :=
            {
              Diagnostic.code = "SFX013";
              rule = "redundant-store";
              severity = Diagnostic.Warning;
              loc = Frontend.Locs.stmt ctx.locs ~proc:pid ord;
              scope = proc_name t pid;
              message =
                Printf.sprintf
                  "value stored to '%s' is redundant: the call to '%s' at \
                   site %d definitely overwrites it before any use"
                  (name_of t v)
                  (proc_name t callee_pid)
                  sid;
              hint = Some "delete the store, or move it after the call";
              witness =
                (* [pre_image] reads the driver's transfer functions:
                   resolve it now, not in the thunk. *)
                (match if explain_on ctx then pre_image sid v else None with
                | Some pre ->
                  witness ctx (fun src ->
                      Printf.sprintf
                        "the call does not read '%s' and definitely \
                         overwrites it:"
                        (name_of src.a v)
                      :: must_witness src ~proc:callee_pid ~var:pre)
                | None -> Diagnostic.no_witness);
            }
            :: !out
        in
        Array.iter
          (fun blk ->
            let instrs = blk.Dataflow.Cfg.instrs in
            Array.iteri
              (fun i (ord, ins) ->
                match ins with
                | Dataflow.Cfg.Assign (Ir.Expr.Lvar v, _)
                  when not (Ir.Types.is_array (P.var prog v).P.vty) ->
                  (* Forward scan: a read of [v] clears the store, a
                     plain overwrite is SFX008's business, a call
                     must-killing [v] before either fires. *)
                  let rec scan j =
                    if j < Array.length instrs then begin
                      let _, ins_j = instrs.(j) in
                      let uses = Bitvec.create nv in
                      Dataflow.Transfer.add_use tf uses ins_j;
                      if Bitvec.get uses v then ()
                      else
                        match ins_j with
                        | Dataflow.Cfg.Call sid
                          when Bitvec.get
                                 (Dataflow.Transfer.kill_of_site tf sid)
                                 v ->
                          emit ~ord v sid
                        | Dataflow.Cfg.Assign (Ir.Expr.Lvar w, _)
                        | Dataflow.Cfg.Read (Ir.Expr.Lvar w)
                        | Dataflow.Cfg.For_init (w, _, _)
                          when w = v ->
                          ()
                        | _ -> scan (j + 1)
                    end
                  in
                  scan (i + 1)
                | _ -> ())
              instrs)
          sol.Dataflow.Driver.cfg.Dataflow.Cfg.blocks);
    List.rev !out

let all =
  [
    {
      name = "unused-formal";
      codes = [ "SFX001" ];
      doc = "by-reference formals no invocation modifies or uses";
      metric = "lint.findings.unused_formal";
      needs_sections = false;
      needs_dataflow = false;
      run = unused_formal;
    };
    {
      name = "write-only-global";
      codes = [ "SFX002" ];
      doc = "globals that are written somewhere but read nowhere";
      metric = "lint.findings.write_only_global";
      needs_sections = false;
      needs_dataflow = false;
      run = write_only_global;
    };
    {
      name = "pure-proc";
      codes = [ "SFX003" ];
      doc = "procedures with empty GMOD and no transitive I/O";
      metric = "lint.findings.pure_proc";
      needs_sections = false;
      needs_dataflow = false;
      run = pure_proc;
    };
    {
      name = "alias-inflation";
      codes = [ "SFX004" ];
      doc = "call sites where the alias closure strictly enlarges DMOD";
      metric = "lint.findings.alias_inflation";
      needs_sections = false;
      needs_dataflow = false;
      run = alias_inflation;
    };
    {
      name = "aliased-actuals";
      codes = [ "SFX005" ];
      doc = "calls passing aliased storage to a modified reference formal";
      metric = "lint.findings.aliased_actuals";
      needs_sections = false;
      needs_dataflow = false;
      run = aliased_actuals;
    };
    {
      name = "loop-parallel";
      codes = [ "SFX006"; "SFX007" ];
      doc = "section-based parallelisability verdicts for call-bearing loops";
      metric = "lint.findings.loop_parallel";
      needs_sections = true;
      needs_dataflow = false;
      run = loop_parallel;
    };
    {
      name = "dead-store";
      codes = [ "SFX008" ];
      doc = "scalar stores no execution path can read, across call sites";
      metric = "lint.findings.dead_store";
      needs_sections = false;
      needs_dataflow = true;
      run = dead_store;
    };
    {
      name = "rmw-hint";
      codes = [ "SFX009" ];
      doc = "calls that read and write a location the caller still needs";
      metric = "lint.findings.rmw_hint";
      needs_sections = false;
      needs_dataflow = true;
      run = rmw_hint;
    };
    {
      name = "undereferenced-ptr";
      codes = [ "SFX010" ];
      doc = "pointer variables whose value never feeds a dereference";
      metric = "lint.findings.undereferenced_ptr";
      needs_sections = false;
      needs_dataflow = false;
      run = undereferenced_ptr;
    };
    {
      name = "ptr-formal-store";
      codes = [ "SFX011" ];
      doc = "stores through pointers that may strike a by-reference formal";
      metric = "lint.findings.ptr_formal_store";
      needs_sections = false;
      needs_dataflow = false;
      run = ptr_formal_store;
    };
    {
      name = "use-before-init";
      codes = [ "SFX012" ];
      doc = "reads no definition — local or callee — can reach";
      metric = "lint.findings.use_before_init";
      needs_sections = false;
      needs_dataflow = true;
      run = use_before_init;
    };
    {
      name = "redundant-store";
      codes = [ "SFX013" ];
      doc = "stores a callee's MUSTMOD definitely overwrites before any use";
      metric = "lint.findings.redundant_store";
      needs_sections = false;
      needs_dataflow = true;
      run = redundant_store;
    };
  ]

let find name = List.find_opt (fun r -> r.name = name) all
