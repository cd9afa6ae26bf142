(* Interprocedural must-modify analysis — the intersection-over-paths
   dual of GMOD.  See mustmod.mli for the semantics and docs/mustmod.md
   for the write-up. *)

module Prog = Ir.Prog
module Stmt = Ir.Stmt
module E = Ir.Expr
module Call = Callgraph.Call
module Digraph = Graphs.Digraph
module Scc = Graphs.Scc

(* --- per-procedure frames ----------------------------------------------

   A procedure's transfer only ever touches variables visible in its
   own frame, so the fixpoint runs over per-procedure compact
   universes and expands onto the full universe once, after
   convergence.  A frame lays out the globals, then the own variables
   (formals and locals, by vid) of each lexical ancestor, outermost
   first, then the procedure's own.  A variable's compact id is then
   the same in every frame that holds it, and since a callee's parent
   is an ancestor-or-self of the caller (enforced by [Ir.Validate]),
   the callee's frame below its own tail is a prefix of the caller's.
   Every counted operation of the hot loop walks the occupied prefix of
   a vector of length [G + Σ own along the chain], independent of
   program size; in the full universe the hybrid representation's small
   form charges card-proportional merges (~|GMOD| element steps per
   transfer), which the bench gate reads as superlinear
   (bench/bench_check.ml section 1b pins the compact behaviour). *)
type frame = {
  n_globals : int;
  globals : int array;  (* global rank -> vid *)
  cid : int array;  (* vid -> compact id, the same in every frame holding it *)
  base : int array;  (* pid -> compact id of its first own variable *)
  vids : int array array;  (* pid -> (compact id - n_globals) -> vid *)
}

let build_frame prog =
  let nv = Prog.n_vars prog in
  let np = Prog.n_procs prog in
  let cid = Array.make nv 0 in
  let own = Array.make np [] in
  let globals = ref [] in
  let n_globals = ref 0 in
  for vid = nv - 1 downto 0 do
    match (Prog.var prog vid).Prog.kind with
    | Prog.Global ->
      globals := vid :: !globals;
      incr n_globals
    | Prog.Local owner | Prog.Formal { proc = owner; _ } ->
      own.(owner) <- vid :: own.(owner)
  done;
  let globals = Array.of_list !globals in
  Array.iteri (fun rank vid -> cid.(vid) <- rank) globals;
  let base = Array.make np 0 in
  let vids = Array.make np [||] in
  (* Down the nesting tree: a child's frame extends its parent's. *)
  let rec lay pid outer =
    base.(pid) <- !n_globals + Array.length outer;
    let tail = Array.of_list own.(pid) in
    Array.iteri (fun i vid -> cid.(vid) <- base.(pid) + i) tail;
    vids.(pid) <- Array.append outer tail;
    List.iter (fun child -> lay child vids.(pid)) (Prog.proc prog pid).Prog.nested
  in
  lay prog.Prog.main [||];
  { n_globals = !n_globals; globals; cid; base; vids }

let frame_len fr pid = max 1 (fr.n_globals + Array.length fr.vids.(pid))

let vid_of fr pid c =
  if c < fr.n_globals then fr.globals.(c) else fr.vids.(pid).(c - fr.n_globals)

(* The callee's MUSTMOD carried through a call site into the caller's
   frame — the same projection the dataflow kill sets use.  Below the
   callee's own tail the ids pass through unchanged (globals and the
   ancestors' variables, laid out alike in both frames); in the tail, a
   by-ref formal lands on a scalar whole-variable actual and everything
   else (callee locals, by-value formals, element and dereference
   actuals — a dereference may-defines its targets but never
   must-defines any one of them) is dropped. *)
let project fr prog callee_must sid out =
  let s = Prog.site prog sid in
  let callee = s.Prog.callee in
  Bitvec.iter
    (fun c ->
      if c < fr.base.(callee) then Bitvec.set out c
      else
        match (Prog.var prog (vid_of fr callee c)).Prog.kind with
        | Prog.Formal { index; mode = Prog.By_ref; _ } -> (
          match s.Prog.args.(index) with
          | Prog.Arg_ref (E.Lvar b) ->
            if not (Ir.Types.is_array (Prog.var prog b).Prog.vty) then
              Bitvec.set out fr.cid.(b)
          | Prog.Arg_ref (E.Lindex _ | E.Lderef _) | Prog.Arg_value _ -> ())
        | Prog.Formal _ | Prog.Local _ | Prog.Global -> ())
    callee_must

(* Definite assignments of a statement sequence, by structural
   recursion.  MiniProc control flow is fully structured, so these
   equations coincide with the least fixpoint of the forward
   must-reach system over the procedure's CFG: a sequence accumulates,
   a conditional contributes the intersection of its branches, a loop
   body contributes nothing (zero iterations), a [for] header always
   writes its index.  [mustmod] supplies the call transfer; [None]
   computes the call-free IMUSTDEF used for provenance grounding. *)
let rec seq_gen fr prog mustmod len acc stmts =
  List.iter (stmt_gen fr prog mustmod len acc) stmts

and stmt_gen fr prog mustmod len acc = function
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
    seq_gen fr prog mustmod len bt t;
    seq_gen fr prog mustmod len be e;
    ignore (Bitvec.inter_into ~src:be ~dst:bt);
    ignore (Bitvec.union_into ~src:bt ~dst:acc)
  | Stmt.Call sid -> (
    match mustmod with
    | Some sets -> project fr prog sets.((Prog.site prog sid).Prog.callee) sid acc
    | None -> ())

let gen_of fr prog mustmod pid =
  let len = frame_len fr pid in
  let acc = Bitvec.create len in
  seq_gen fr prog mustmod len acc (Prog.proc prog pid).Prog.body;
  acc

(* Compact image of a full-universe per-procedure set (the GMOD cap,
   the demotion set).  Ids outside [pid]'s frame are dropped: the
   transfer cannot generate them, so they are inert under both the cap
   and the demotion anyway. *)
let of_full fr pid full =
  let v = Bitvec.create (frame_len fr pid) in
  let size = fr.n_globals + Array.length fr.vids.(pid) in
  Bitvec.iter
    (fun vid ->
      let c = fr.cid.(vid) in
      if c < size && vid_of fr pid c = vid then Bitvec.set v c)
    full;
  v

let expand fr nv pid compact =
  let out = Bitvec.create nv in
  Bitvec.iter (fun c -> Bitvec.set out (vid_of fr pid c)) compact;
  out

type state = {
  call : Call.t;  (* the call graph and the condensation the solve rides *)
  callers_in_comp : int list array;
      (* per pid: its callers inside its own component, deduped
         ascending — the worklist re-entry edges of a cyclic component *)
  trivial : bool array;  (* singleton-without-self-loop components *)
  frame : frame;
  gmod_c : Bitvec.t array;  (* the GMOD cap, in frame coordinates *)
  demoted_c : Bitvec.t array;  (* the demotion set, in frame coordinates *)
  must_c : Bitvec.t array;  (* MUSTMOD, in frame coordinates *)
}

type result = {
  prog : Prog.t;
  mustmod : Bitvec.t array;
  intra : Bitvec.t array;
  demoted : Bitvec.t array;
  rounds : int;
  state : state;
}

module Int_set = Set.Make (Int)

let rounds_metric = Obs.Metric.counter "mustmod.rounds"

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

(* One procedure's transfer under the current callee values:
   structural IMUSTDEF with the call projection, demoted to may on
   alias involvement, capped by GMOD (a must-write is a may-write — the
   enforced MUSTMOD ⊆ GMOD invariant).  Components are numbered in
   reverse topological order of the call condensation, so a component
   solved after its callee components sees their values final — the
   same leaves-to-roots convention as Figure 1's step 3.  Within a
   cyclic component the members restart at ∅ and iterate to the least
   fixpoint: the transfer is monotone in the callee values, so the
   chaotic iteration converges, and starting at ∅ keeps the answer
   conservative (a recursive procedure's must-set only contains what
   every unrolling agrees on; on a re-solve, stale bits of a write an
   edit removed cannot survive).  The iteration drains a worklist
   largest pid first — call edges skew towards higher pids, so draining
   from the top tends to stabilise callees before their in-component
   callers.  A member re-enters the list only when a callee inside the
   component changed, so the transfer count is bounded by the bits the
   component's values gain on the way up to the least fixpoint — not
   members × sweep rounds, which goes quadratic on large components.
   Returns the transfers computed. *)
let solve_comp prog st c =
  let transfer pid =
    let v = gen_of st.frame prog (Some st.must_c) pid in
    ignore (Bitvec.diff_into ~src:st.demoted_c.(pid) ~dst:v);
    ignore (Bitvec.inter_into ~src:st.gmod_c.(pid) ~dst:v);
    v
  in
  match st.call.Call.scc.Scc.members.(c) with
  | [ pid ] when st.trivial.(c) ->
    st.must_c.(pid) <- transfer pid;
    1
  | procs ->
    List.iter
      (fun pid -> st.must_c.(pid) <- Bitvec.create (frame_len st.frame pid))
      procs;
    let rounds = ref 0 and work = ref (Int_set.of_list procs) in
    while not (Int_set.is_empty !work) do
      let pid = Int_set.max_elt !work in
      work := Int_set.remove pid !work;
      incr rounds;
      let v = transfer pid in
      if not (Bitvec.equal v st.must_c.(pid)) then begin
        st.must_c.(pid) <- v;
        List.iter
          (fun caller -> work := Int_set.add caller !work)
          st.callers_in_comp.(pid)
      end
    done;
    !rounds

(* [solve_comp] for the components [seeds] names and the ancestors a
   moved value reaches, as a condensation wavefront: a component runs
   only after every callee component's level completed, so it reads
   final successor values.  Per-component work is the same with or
   without a pool, hence results and counted op totals are too.  With
   [prev] (the values before an edit) a component moved iff one of its
   members' sets differs from it, and [note] sees each member that did;
   without it (batch: every component runs anyway) nothing is
   compared.  Returns the rounds. *)
let propagate ?prev pool prog st ~seeds =
  let scc = st.call.Call.scc in
  let slot_rounds = Array.make (Par.Pool.slots pool) 0 in
  ignore
    (Par.Wavefront.resolve pool scc ~seeds
       ~cost:(fun c ->
         List.fold_left
           (fun acc pid -> acc + Stmt.count (Prog.proc prog pid).Prog.body)
           1 scc.Scc.members.(c))
       ~f:(fun ~slot ~comp ->
         slot_rounds.(slot) <- slot_rounds.(slot) + solve_comp prog st comp;
         match prev with
         | None -> true
         | Some (prev, note) ->
           let moved =
             List.filter
               (fun pid -> not (Bitvec.equal st.must_c.(pid) prev.(pid)))
               scc.Scc.members.(comp)
           in
           List.iter note moved;
           moved <> []));
  let rounds = Array.fold_left ( + ) 0 slot_rounds in
  Obs.Metric.add rounds_metric rounds;
  rounds

let solve ?(label = "mustmod") ?pool info call ~alias ~gmod =
  Obs.Span.with_ label @@ fun () ->
  let prog = Ir.Info.prog info in
  let nv = Ir.Info.n_vars info in
  let np = Prog.n_procs prog in
  let g = call.Call.graph in
  let scc = call.Call.scc in
  let callers_in_comp = Array.make np [] in
  Digraph.iter_edges g (fun _ src dst ->
      if src <> dst && scc.Scc.comp.(src) = scc.Scc.comp.(dst) then
        callers_in_comp.(dst) <- src :: callers_in_comp.(dst));
  Array.iteri
    (fun pid l -> callers_in_comp.(pid) <- List.sort_uniq compare l)
    callers_in_comp;
  let trivial =
    Array.map
      (function
        | [ pid ] -> not (List.mem pid (Digraph.succ_list g pid)) | _ -> false)
      scc.Scc.members
  in
  let frame = build_frame prog in
  (* The call-free IMUSTDEF, always computed (not only under
     provenance) so counted op totals are identical either way; it is
     also what [sidefx must] reports as the intraprocedural column. *)
  let intra =
    Array.init np (fun pid -> expand frame nv pid (gen_of frame prog None pid))
  in
  let demoted = Array.init np (fun pid -> demotions info alias pid) in
  let st =
    {
      call;
      callers_in_comp;
      trivial;
      frame;
      gmod_c = Array.init np (fun pid -> of_full frame pid gmod.(pid));
      demoted_c = Array.init np (fun pid -> of_full frame pid demoted.(pid));
      must_c = Array.init np (fun pid -> Bitvec.create (frame_len frame pid));
    }
  in
  let rounds = propagate pool prog st ~seeds:Par.Wavefront.All in
  let mustmod = Array.mapi (expand frame nv) st.must_c in
  { prog; mustmod; intra; demoted; rounds; state = st }

(* Copies before it writes: a server session re-solves from the
   registry's shared record, which must not change. *)
let resolve ?(label = "mustmod.region") ?pool r info ~alias ~gmod ~changed_procs =
  Obs.Span.with_ label @@ fun () ->
  let prog = Ir.Info.prog info in
  let nv = Ir.Info.n_vars info in
  let fr = r.state.frame in
  (* Re-derive the per-procedure ingredients of the edited procedures
     (body gen, alias demotion and the GMOD cap can all shift under a
     body edit), then re-solve their components and the ancestors a
     moved value reaches. *)
  let intra = Array.copy r.intra in
  let demoted = Array.copy r.demoted in
  let mustmod = Array.copy r.mustmod in
  let st =
    {
      r.state with
      gmod_c = Array.copy r.state.gmod_c;
      demoted_c = Array.copy r.state.demoted_c;
      must_c = Array.copy r.state.must_c;
    }
  in
  List.iter
    (fun pid ->
      intra.(pid) <- expand fr nv pid (gen_of fr prog None pid);
      demoted.(pid) <- demotions info alias pid;
      st.demoted_c.(pid) <- of_full fr pid demoted.(pid);
      st.gmod_c.(pid) <- of_full fr pid gmod.(pid))
    changed_procs;
  let scc = st.call.Call.scc in
  let rounds =
    propagate pool prog st
      ~seeds:(Par.Wavefront.Comps (List.map (fun pid -> scc.Scc.comp.(pid)) changed_procs))
      ~prev:
        (r.state.must_c, fun pid -> mustmod.(pid) <- expand fr nv pid st.must_c.(pid))
  in
  { prog; mustmod; intra; demoted; rounds; state = st }

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
