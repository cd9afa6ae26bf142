(* Interprocedural must-modify analysis — the intersection-over-paths
   dual of GMOD.  See mustmod.mli for the semantics and docs/mustmod.md
   for the write-up. *)

module Prog = Ir.Prog
module Stmt = Ir.Stmt
module E = Ir.Expr
module Call = Callgraph.Call
module Digraph = Graphs.Digraph
module Scc = Graphs.Scc

type result = {
  prog : Prog.t;
  mustmod : Bitvec.t array;
  intra : Bitvec.t array;
  demoted : Bitvec.t array;
  rounds : int;
}

type solution = {
  res : result;
  scc : Scc.result;
  members : int list array;
  succs_by_comp : int list array;
  preds_by_comp : int list array;
  callers_in_comp : int list array;
  trivial : bool array;
}

module Int_set = Set.Make (Int)

let rounds_metric = Obs.Metric.counter "mustmod.rounds"

(* The callee's MUSTMOD carried through a call site into the caller's
   frame — the same projection the dataflow kill sets use: a by-ref
   formal lands on a scalar whole-variable actual, non-locals of the
   callee pass through, everything else (callee locals, by-value
   formals, element and dereference actuals — a dereference may-defines
   its targets but never must-defines any one of them) is dropped. *)
let project prog callee_must sid out =
  let s = Prog.site prog sid in
  Bitvec.iter
    (fun vid ->
      match (Prog.var prog vid).Prog.kind with
      | Prog.Formal { proc; index; mode = Prog.By_ref } when proc = s.Prog.callee
        -> (
        match s.Prog.args.(index) with
        | Prog.Arg_ref (E.Lvar b) ->
          if not (Ir.Types.is_array (Prog.var prog b).Prog.vty) then
            Bitvec.set out b
        | Prog.Arg_ref (E.Lindex _ | E.Lderef _) | Prog.Arg_value _ -> ())
      | Prog.Formal { proc; _ } when proc = s.Prog.callee -> ()
      | Prog.Local owner when owner = s.Prog.callee -> ()
      | _ -> Bitvec.set out vid)
    callee_must

(* Definite assignments of a statement sequence, by structural
   recursion.  MiniProc control flow is fully structured, so these
   equations coincide with the least fixpoint of the forward
   must-reach system over the procedure's CFG: a sequence accumulates,
   a conditional contributes the intersection of its branches, a loop
   body contributes nothing (zero iterations), a [for] header always
   writes its index.  [mustmod] supplies the call transfer; [None]
   computes the call-free IMUSTDEF used for provenance grounding. *)
let rec seq_gen prog mustmod nv acc stmts =
  List.iter (stmt_gen prog mustmod nv acc) stmts

and stmt_gen prog mustmod nv acc = function
  | Stmt.Assign (E.Lvar x, _) | Stmt.Read (E.Lvar x) -> Bitvec.set acc x
  | Stmt.Assign ((E.Lindex _ | E.Lderef _), _)
  | Stmt.Read (E.Lindex _ | E.Lderef _)
  | Stmt.Write _ ->
    ()
  | Stmt.For (x, _, _, _) -> Bitvec.set acc x
  | Stmt.While _ -> ()
  | Stmt.If (_, t, e) ->
    let bt = Bitvec.create nv in
    let be = Bitvec.create nv in
    seq_gen prog mustmod nv bt t;
    seq_gen prog mustmod nv be e;
    ignore (Bitvec.inter_into ~src:be ~dst:bt);
    ignore (Bitvec.union_into ~src:bt ~dst:acc)
  | Stmt.Call sid -> (
    match mustmod with
    | Some sets -> project prog sets.((Prog.site prog sid).Prog.callee) sid acc
    | None -> ())

let gen_of prog mustmod nv pid =
  let acc = Bitvec.create nv in
  seq_gen prog mustmod nv acc (Prog.proc prog pid).Prog.body;
  acc

(* --- compact per-procedure frames (flat programs) --------------------- *)

(* In a flat program ([Prog.max_level <= 1]) a procedure's transfer
   only ever touches variables visible in its own frame: the globals
   plus its own formals and locals.  Like [Renumber] on the may side,
   the fixpoint therefore runs over per-procedure compact universes —
   the globals as a shared low prefix, the procedure's own variables
   as a short tail — and expands onto the full universe once, after
   convergence.  Every counted operation of the hot loop then walks
   the occupied word prefix of a vector of length [G + own], which is
   independent of program size; without the frames the same sets sit
   in the full universe where the hybrid representation's small form
   charges card-proportional merges (~|GMOD| element steps per
   transfer), and total word work picks up a representation-transition
   bump that the bench gate reads as superlinear
   (bench/bench_check.ml section 1b pins the compact behaviour). *)
type frame = {
  n_globals : int;
  globals : int array;  (* global rank -> vid *)
  cid : int array;  (* vid -> compact id within its owner's universe *)
  owner_of : int array;  (* vid -> owning pid, or -1 for a global *)
  owned : int array array;  (* pid -> tail index -> vid *)
}

let build_frame prog =
  let nv = Prog.n_vars prog in
  let np = Prog.n_procs prog in
  let cid = Array.make nv 0 in
  let owner_of = Array.make nv (-1) in
  let tails = Array.make np [] in
  let globals = ref [] in
  let n_globals = ref 0 in
  for vid = 0 to nv - 1 do
    match (Prog.var prog vid).Prog.kind with
    | Prog.Global ->
      cid.(vid) <- !n_globals;
      globals := vid :: !globals;
      incr n_globals
    | Prog.Local owner | Prog.Formal { proc = owner; _ } ->
      owner_of.(vid) <- owner;
      tails.(owner) <- vid :: tails.(owner)
  done;
  let owned = Array.map (fun l -> Array.of_list (List.rev l)) tails in
  Array.iter
    (fun tail -> Array.iteri (fun i vid -> cid.(vid) <- !n_globals + i) tail)
    owned;
  {
    n_globals = !n_globals;
    globals = Array.of_list (List.rev !globals);
    cid;
    owner_of;
    owned;
  }

let frame_len fr pid = max 1 (fr.n_globals + Array.length fr.owned.(pid))

(* [project], in compact coordinates: the callee's tail ids are its
   own variables, so the callee-frame case analysis reduces to "tail
   by-ref formals re-bind through the site, every other tail id drops,
   the global prefix passes through unchanged". *)
let c_project fr prog callee_must sid out =
  let s = Prog.site prog sid in
  Bitvec.iter
    (fun c ->
      if c < fr.n_globals then Bitvec.set out c
      else
        let vid = fr.owned.(s.Prog.callee).(c - fr.n_globals) in
        match (Prog.var prog vid).Prog.kind with
        | Prog.Formal { index; mode = Prog.By_ref; _ } -> (
          match s.Prog.args.(index) with
          | Prog.Arg_ref (E.Lvar b) ->
            if not (Ir.Types.is_array (Prog.var prog b).Prog.vty) then
              Bitvec.set out fr.cid.(b)
          | Prog.Arg_ref (E.Lindex _ | E.Lderef _) | Prog.Arg_value _ -> ())
        | Prog.Formal _ | Prog.Local _ | Prog.Global -> ())
    callee_must

let rec c_seq_gen fr prog mustmod len acc stmts =
  List.iter (c_stmt_gen fr prog mustmod len acc) stmts

and c_stmt_gen fr prog mustmod len acc = function
  | Stmt.Assign (E.Lvar x, _) | Stmt.Read (E.Lvar x) -> Bitvec.set acc fr.cid.(x)
  | Stmt.Assign ((E.Lindex _ | E.Lderef _), _)
  | Stmt.Read (E.Lindex _ | E.Lderef _)
  | Stmt.Write _ ->
    ()
  | Stmt.For (x, _, _, _) -> Bitvec.set acc fr.cid.(x)
  | Stmt.While _ -> ()
  | Stmt.If (_, t, e) ->
    let bt = Bitvec.create len in
    let be = Bitvec.create len in
    c_seq_gen fr prog mustmod len bt t;
    c_seq_gen fr prog mustmod len be e;
    ignore (Bitvec.inter_into ~src:be ~dst:bt);
    ignore (Bitvec.union_into ~src:bt ~dst:acc)
  | Stmt.Call sid -> (
    match mustmod with
    | Some sets ->
      c_project fr prog sets.((Prog.site prog sid).Prog.callee) sid acc
    | None -> ())

let c_gen_of fr prog mustmod pid =
  let acc = Bitvec.create (frame_len fr pid) in
  c_seq_gen fr prog mustmod (frame_len fr pid) acc (Prog.proc prog pid).Prog.body;
  acc

(* Compact image of a full-universe per-procedure set (the GMOD cap,
   the demotion set).  Ids outside [pid]'s frame are dropped: in a
   flat program the transfer cannot generate them, so they are inert
   under both the cap and the demotion anyway. *)
let c_of_full fr pid len full =
  let v = Bitvec.create len in
  Bitvec.iter
    (fun vid ->
      if fr.owner_of.(vid) < 0 || fr.owner_of.(vid) = pid then
        Bitvec.set v fr.cid.(vid))
    full;
  v

let expand_frame fr nv compact =
  Array.mapi
    (fun pid cv ->
      let out = Bitvec.create nv in
      Bitvec.iter
        (fun c ->
          Bitvec.set out
            (if c < fr.n_globals then fr.globals.(c)
             else fr.owned.(pid).(c - fr.n_globals)))
        cv;
      out)
    compact

(* §5/ptsto demotion.  A pair [<x, y> ∈ ALIAS(p)] makes a must-claim
   unreliable for any member whose cell the projection cannot
   re-resolve.  [p]'s own by-ref formal keeps its must-facts under a
   pure parameter-binding pair — every call re-binds the formal and
   [project] re-attributes the write to that site's actual, so a
   direct write through the formal reaches its bound cell on every
   entry — but a visible member is always demoted (its name may be a
   second name for a formal's cell, reached on only some entries), and
   a {e pointer-tainted} pair (a dereference binding resolved by the
   points-to projection, or a heap-overlap seed — the pairs a coarser
   [--ptsto] keeps and a finer one refutes) demotes every member
   including formals: the cells behind those names are not re-resolved
   by any site, so no must-claim that touches them survives. *)
let demotions info alias pid =
  let prog = Ir.Info.prog info in
  let v = Ir.Info.fresh info in
  let own_byref vid =
    match (Prog.var prog vid).Prog.kind with
    | Prog.Formal { proc; mode = Prog.By_ref; _ } -> proc = pid
    | _ -> false
  in
  List.iter
    (fun (x, y) ->
      let tainted = Alias.pointer_tainted alias ~proc:pid (x, y) in
      let demote vid = Bitvec.set v vid in
      match (own_byref x, own_byref y) with
      | true, false ->
        demote y;
        if tainted then demote x
      | false, true ->
        demote x;
        if tainted then demote y
      | true, true -> if tainted then (demote x; demote y)
      | false, false ->
        demote x;
        demote y)
    (Alias.pairs alias pid);
  v

(* Chaotic worklist iteration of one cyclic component, largest pid
   first — call edges skew towards higher pids, so draining from the
   top tends to stabilise callees before their in-component callers.
   A member re-enters the list only when a callee inside the component
   changed, so the transfer count is bounded by the bits the
   component's values gain on the way up to the least fixpoint — not
   members × sweep rounds, which goes quadratic on large components.
   Returns the number of transfers computed.  [mustmod] must hold the
   starting values (∅ for a from-scratch solve) for every member. *)
let iterate_comp ~transfer ~mustmod ~callers_in_comp procs =
  let rounds = ref 0 in
  let work =
    ref (List.fold_left (fun s p -> Int_set.add p s) Int_set.empty procs)
  in
  while not (Int_set.is_empty !work) do
    let pid = Int_set.max_elt !work in
    work := Int_set.remove pid !work;
    incr rounds;
    let v = transfer pid in
    if not (Bitvec.equal v mustmod.(pid)) then begin
      mustmod.(pid) <- v;
      List.iter
        (fun caller -> work := Int_set.add caller !work)
        callers_in_comp.(pid)
    end
  done;
  !rounds

let solve_cached ?(label = "mustmod") ?pool info call ~alias ~gmod =
  Obs.Span.with_ label @@ fun () ->
  let prog = Ir.Info.prog info in
  let nv = Ir.Info.n_vars info in
  let np = Prog.n_procs prog in
  let g = call.Call.graph in
  let scc = Scc.compute g in
  let n_comps = scc.Scc.n_comps in
  let members = Scc.members scc in
  let succs_by_comp = Array.make n_comps [] in
  let preds_by_comp = Array.make n_comps [] in
  let callers_in_comp = Array.make np [] in
  Digraph.iter_edges g (fun _ src dst ->
      let cs = scc.Scc.comp.(src) and cd = scc.Scc.comp.(dst) in
      if cs <> cd then begin
        succs_by_comp.(cs) <- cd :: succs_by_comp.(cs);
        preds_by_comp.(cd) <- cs :: preds_by_comp.(cd)
      end
      else if src <> dst then
        callers_in_comp.(dst) <- src :: callers_in_comp.(dst));
  Array.iteri
    (fun pid l -> callers_in_comp.(pid) <- List.sort_uniq compare l)
    callers_in_comp;
  let trivial = Array.init n_comps (fun c -> Scc.is_trivial g scc c) in
  (* The call-free IMUSTDEF, always computed (not only under
     provenance) so counted op totals are identical either way; it is
     also what [sidefx must] reports as the intraprocedural column. *)
  let intra = Array.init np (fun pid -> gen_of prog None nv pid) in
  let demoted = Array.init np (fun pid -> demotions info alias pid) in
  (* One procedure's transfer under the current callee values:
     structural IMUSTDEF with the call projection, demoted to may on
     alias involvement, capped by GMOD (a must-write is a may-write —
     the enforced MUSTMOD ⊆ GMOD invariant).  Flat programs run the
     fixpoint in compact per-procedure frames (see [build_frame]);
     nested ones, where an inner procedure can must-write an outer
     frame's variable, keep the full universe. *)
  let frame =
    if Prog.max_level prog <= 1 then Some (build_frame prog) else None
  in
  let mustmod =
    match frame with
    | Some fr -> Array.init np (fun pid -> Bitvec.create (frame_len fr pid))
    | None -> Array.init np (fun _ -> Bitvec.create nv)
  in
  let transfer =
    match frame with
    | Some fr ->
      let gmod_c =
        Array.init np (fun pid -> c_of_full fr pid (frame_len fr pid) gmod.(pid))
      in
      let demoted_c =
        Array.init np (fun pid ->
            c_of_full fr pid (frame_len fr pid) demoted.(pid))
      in
      fun pid ->
        let v = c_gen_of fr prog (Some mustmod) pid in
        ignore (Bitvec.diff_into ~src:demoted_c.(pid) ~dst:v);
        ignore (Bitvec.inter_into ~src:gmod_c.(pid) ~dst:v);
        v
    | None ->
      fun pid ->
        let v = gen_of prog (Some mustmod) nv pid in
        ignore (Bitvec.diff_into ~src:demoted.(pid) ~dst:v);
        ignore (Bitvec.inter_into ~src:gmod.(pid) ~dst:v);
        v
  in
  (* Components are numbered in reverse topological order of the call
     condensation, so walking them in increasing order sees every
     callee's value final — the same leaves-to-roots convention as
     Figure 1's step 3.  Within a cyclic component the members iterate
     from ∅ to the least fixpoint: the transfer is monotone in the
     callee values, so the chaotic iteration converges, and starting
     at ∅ keeps the answer conservative (a recursive procedure's
     must-set only contains what every unrolling agrees on). *)
  let solve_comp c =
    match members.(c) with
    | [ pid ] when trivial.(c) ->
      mustmod.(pid) <- transfer pid;
      1
    | procs -> iterate_comp ~transfer ~mustmod ~callers_in_comp procs
  in
  (* Condensation wavefront: a component runs only after every callee
     component's level completed, so each [solve_comp] reads final
     successor values.  Per-component work is the same with or without
     a pool, hence results and counted op totals are too. *)
  let jobs = Par.Pool.slots pool in
  let slot_rounds = Array.make jobs 0 in
  let levels =
    Par.Wavefront.of_comp_succs ~n_comps ~succs_of:(fun c -> succs_by_comp.(c))
  in
  let plan =
    Par.Wavefront.plan levels ~jobs ~cost:(fun c ->
        List.fold_left
          (fun acc pid -> acc + Stmt.count (Prog.proc prog pid).Prog.body)
          1 members.(c))
  in
  Par.Wavefront.run_plan pool plan ~f:(fun ~slot ~comp ->
      slot_rounds.(slot) <- slot_rounds.(slot) + solve_comp comp);
  let rounds = Array.fold_left ( + ) 0 slot_rounds in
  Obs.Metric.add rounds_metric rounds;
  let mustmod =
    match frame with
    | Some fr -> expand_frame fr nv mustmod
    | None -> mustmod
  in
  {
    res = { prog; mustmod; intra; demoted; rounds };
    scc;
    members;
    succs_by_comp;
    preds_by_comp;
    callers_in_comp;
    trivial;
  }

let solve ?label ?pool info call ~alias ~gmod =
  (solve_cached ?label ?pool info call ~alias ~gmod).res

let resolve ?(label = "mustmod.region") sol info ~alias ~gmod ~changed_procs =
  Obs.Span.with_ label @@ fun () ->
  let prog = Ir.Info.prog info in
  let nv = Ir.Info.n_vars info in
  let np = Prog.n_procs prog in
  (* Re-derive the per-procedure ingredients of the edited procedures
     (body gen and alias demotion can both shift under a body edit),
     then push change leaves-to-roots over the cached condensation —
     the same pruned ancestor cone as [Rmod.resolve]: the smallest
     queued component always has final callee values, and a component
     whose recomputed sets come out unchanged stops the walk. *)
  let intra = Array.copy sol.res.intra in
  let demoted = Array.copy sol.res.demoted in
  let mustmod = Array.copy sol.res.mustmod in
  let queue = ref Int_set.empty in
  List.iter
    (fun pid ->
      intra.(pid) <- gen_of prog None nv pid;
      demoted.(pid) <- demotions info alias pid;
      queue := Int_set.add sol.scc.Scc.comp.(pid) !queue)
    changed_procs;
  let transfer pid =
    let v = gen_of prog (Some mustmod) nv pid in
    ignore (Bitvec.diff_into ~src:demoted.(pid) ~dst:v);
    ignore (Bitvec.inter_into ~src:gmod.(pid) ~dst:v);
    v
  in
  let rounds = ref 0 in
  let changed_set = Array.make np false in
  while not (Int_set.is_empty !queue) do
    let c = Int_set.min_elt !queue in
    queue := Int_set.remove c !queue;
    let comp_changed = ref false in
    (match sol.members.(c) with
    | [ pid ] when sol.trivial.(c) ->
      incr rounds;
      let v = transfer pid in
      if not (Bitvec.equal v mustmod.(pid)) then begin
        mustmod.(pid) <- v;
        comp_changed := true;
        changed_set.(pid) <- true
      end
    | procs ->
      (* A cyclic component re-solves from ∅: restarting at the cached
         values could keep stale bits alive (the must lattice grows
         downward under an edit that removes a write). *)
      List.iter (fun pid -> mustmod.(pid) <- Bitvec.create nv) procs;
      rounds :=
        !rounds
        + iterate_comp ~transfer ~mustmod
            ~callers_in_comp:sol.callers_in_comp procs;
      List.iter
        (fun pid ->
          if not (Bitvec.equal mustmod.(pid) sol.res.mustmod.(pid)) then begin
            comp_changed := true;
            changed_set.(pid) <- true
          end)
        procs);
    if !comp_changed then
      List.iter (fun cp -> queue := Int_set.add cp !queue) sol.preds_by_comp.(c)
  done;
  Obs.Metric.add rounds_metric !rounds;
  let changed = ref [] in
  for pid = np - 1 downto 0 do
    if changed_set.(pid) then changed := pid :: !changed
  done;
  ( {
      sol with
      res = { prog; mustmod; intra; demoted; rounds = !rounds };
    },
    !changed )

(* --- provenance grounding --------------------------------------------- *)

(* Breadth-first grounding of every MUSTMOD fact, from the procedures'
   own definite assignments outwards through the call-site projections.
   Touches bits only through [Bitvec.get] — never counted operations —
   so op-count metrics are identical whether or not provenance is on
   (the same contract as [Provenance.compute]'s forests).  BFS order
   guarantees the reason forest is acyclic even inside call cycles. *)
let ground_reasons (r : result) (table : Provenance.must_table) =
  let prog = r.prog in
  let nv = Prog.n_vars prog in
  let sites_by_callee = Array.make (Prog.n_procs prog) [] in
  Prog.iter_sites prog (fun s ->
      sites_by_callee.(s.Prog.callee) <- s :: sites_by_callee.(s.Prog.callee));
  let sites_by_callee = Array.map List.rev sites_by_callee in
  let queue = Queue.create () in
  let assign pid vid reason =
    if not (Hashtbl.mem table (pid, vid)) then begin
      Hashtbl.add table (pid, vid) reason;
      Queue.add (pid, vid) queue
    end
  in
  Prog.iter_procs prog (fun pr ->
      let pid = pr.Prog.pid in
      for vid = 0 to nv - 1 do
        if Bitvec.get r.mustmod.(pid) vid && Bitvec.get r.intra.(pid) vid then
          assign pid vid Provenance.Mdef
      done);
  while not (Queue.is_empty queue) do
    let q, u = Queue.take queue in
    List.iter
      (fun (s : Prog.site) ->
        let caller = s.Prog.caller in
        let reach w =
          if Bitvec.get r.mustmod.(caller) w then
            assign caller w (Provenance.Mcall { site = s.Prog.sid; pre = u })
        in
        match (Prog.var prog u).Prog.kind with
        | Prog.Formal { proc; index; mode = Prog.By_ref } when proc = q -> (
          match s.Prog.args.(index) with
          | Prog.Arg_ref (E.Lvar b) -> reach b
          | Prog.Arg_ref (E.Lindex _ | E.Lderef _) | Prog.Arg_value _ -> ())
        | Prog.Formal { proc; _ } when proc = q -> ()
        | Prog.Local owner when owner = q -> ()
        | _ -> reach u)
      sites_by_callee.(q)
  done

(* --- accessors and reporting ------------------------------------------ *)

let mustmod_of r pid = r.mustmod.(pid)
let intra_of r pid = r.intra.(pid)
let demoted_of r pid = r.demoted.(pid)

let check_subset r ~gmod =
  let ok = ref true in
  Array.iteri
    (fun pid m -> if not (Bitvec.subset m gmod.(pid)) then ok := false)
    r.mustmod;
  !ok

let pp ppf r =
  let prog = r.prog in
  Format.fprintf ppf "@[<v>";
  Prog.iter_procs prog (fun pr ->
      Format.fprintf ppf "MUSTMOD(%s) = %a@," pr.Prog.pname
        (Ir.Pp.pp_var_set prog) r.mustmod.(pr.Prog.pid));
  Format.fprintf ppf "@]"
