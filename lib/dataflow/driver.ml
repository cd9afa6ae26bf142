module P = Ir.Prog
module A = Core.Analyze

type solution = {
  cfg : Cfg.t;
  live : Live.t;
  reach : Reach.t;
}

type t = {
  mutable analysis : A.t;
  mutable locs : Frontend.Locs.t;
  mutable tf : Transfer.t option;
  mutable slots : solution option array;
}

let m_solved = Obs.Metric.counter "dataflow.procs_solved"
let m_blocks = Obs.Metric.counter "dataflow.blocks"
let m_live_passes = Obs.Metric.counter "dataflow.live_passes"
let m_reach_passes = Obs.Metric.counter "dataflow.reach_passes"
let m_kill_visits = Obs.Metric.counter "dataflow.kill_visits"
let m_invalidated = Obs.Metric.counter "dataflow.invalidated"

let create ?locs (a : A.t) =
  {
    analysis = a;
    locs = (match locs with Some l -> l | None -> Frontend.Locs.dummy a.A.prog);
    tf = None;
    slots = Array.make (P.n_procs a.A.prog) None;
  }

let analysis t = t.analysis

let transfer t =
  match t.tf with
  | Some tf -> tf
  | None ->
    let tf = Transfer.make t.analysis in
    t.tf <- Some tf;
    tf

let solve_one tf locs prog pid =
  let cfg = Cfg.build ~locs prog pid in
  let live = Live.solve tf cfg in
  let reach = Reach.solve tf cfg in
  { cfg; live; reach }

let note sol =
  Obs.Metric.add m_solved 1;
  Obs.Metric.add m_blocks (Cfg.n_blocks sol.cfg);
  Obs.Metric.add m_live_passes (Live.passes sol.live);
  Obs.Metric.add m_reach_passes (Reach.passes sol.reach);
  Obs.Metric.add m_kill_visits (Reach.kill_visits sol.reach)

let solution t pid =
  match t.slots.(pid) with
  | Some s -> s
  | None ->
    let s = solve_one (transfer t) t.locs t.analysis.A.prog pid in
    note s;
    t.slots.(pid) <- Some s;
    s

let solve_all ?pool t =
  Obs.Span.with_ "dataflow.solve" @@ fun () ->
  let todo = ref [] in
  Array.iteri (fun pid s -> if s = None then todo := pid :: !todo) t.slots;
  let todo = Array.of_list (List.rev !todo) in
  if Array.length todo > 0 then begin
    let tf = transfer t in
    (* Each task owns its slot, so tasks write disjoint cells and the
       answers cannot depend on scheduling.  The procedures are
       independent (one flat level), batched coarsely by estimated CFG
       size — statement and call-site counts — rather than one task
       per procedure. *)
    let levels = Graphs.Scc.of_comp_succs (Array.map (fun _ -> [||]) todo) in
    let prog = t.analysis.A.prog in
    let n_sites = Array.make (P.n_procs prog) 0 in
    P.iter_sites prog (fun s -> n_sites.(s.P.caller) <- n_sites.(s.P.caller) + 1);
    let cost i =
      let pid = todo.(i) in
      1 + List.length (P.proc prog pid).P.body + n_sites.(pid)
    in
    let plan = Par.Wavefront.plan levels ~jobs:(Par.Pool.slots pool) ~cost in
    Par.Wavefront.run_plan pool plan ~f:(fun ~slot:_ ~comp:i ->
        let pid = todo.(i) in
        t.slots.(pid) <- Some (solve_one tf t.locs prog pid));
    (* Metrics on the calling domain, in pid order, so profiles are
       jobs-invariant too. *)
    Array.iter
      (fun pid ->
        match t.slots.(pid) with
        | Some s -> note s
        | None -> ())
      todo
  end

let reset ?locs t (a : A.t) =
  t.analysis <- a;
  t.locs <- (match locs with Some l -> l | None -> Frontend.Locs.dummy a.A.prog);
  t.tf <- None;
  t.slots <- Array.make (P.n_procs a.A.prog) None

let same_shape old_p new_p =
  P.n_procs old_p = P.n_procs new_p
  && P.n_vars old_p = P.n_vars new_p
  && P.n_sites old_p = P.n_sites new_p

let refresh ?locs t (a : A.t) ~edited =
  let old = t.analysis in
  if not (same_shape old.A.prog a.A.prog) then begin
    reset ?locs t a;
    Array.to_list (Array.init (P.n_procs a.A.prog) (fun p -> p))
  end
  else begin
    let old_tf = transfer t in
    let new_tf = Transfer.make a in
    let np = P.n_procs a.A.prog in
    let summary_changed =
      Array.init np (fun q ->
          (not (Bitvec.equal (A.gmod_of old q) (A.gmod_of a q)))
          || (not (Bitvec.equal (A.guse_of old q) (A.guse_of a q)))
          || not (Bitvec.equal (Transfer.must_mod old_tf q) (Transfer.must_mod new_tf q)))
    in
    let invalid = Array.make np false in
    List.iter (fun pid -> invalid.(pid) <- true) edited;
    P.iter_procs a.A.prog (fun pr ->
        if not (Bitvec.equal (Transfer.aliased old_tf pr.P.pid) (Transfer.aliased new_tf pr.P.pid))
        then invalid.(pr.P.pid) <- true);
    P.iter_sites a.A.prog (fun s ->
        if summary_changed.(s.P.callee) then invalid.(s.P.caller) <- true);
    t.analysis <- a;
    (match locs with Some l -> t.locs <- l | None -> ());
    t.tf <- Some new_tf;
    let dropped = ref [] in
    for pid = np - 1 downto 0 do
      if invalid.(pid) then begin
        t.slots.(pid) <- None;
        dropped := pid :: !dropped
      end
    done;
    Obs.Metric.add m_invalidated (List.length !dropped);
    !dropped
  end
