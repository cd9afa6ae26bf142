(* Interprocedural must-modify analysis — the intersection-over-paths
   dual of GMOD.  See mustmod.mli for the semantics and docs/mustmod.md
   for the write-up. *)

module Prog = Ir.Prog
module Stmt = Ir.Stmt
module E = Ir.Expr
module Call = Callgraph.Call
module Scc = Graphs.Scc

(* --- per-procedure frames ----------------------------------------------

   A procedure's must facts only ever name variables visible in its
   own frame, so the solver derives them in per-procedure compact
   universes and expands onto the full universe once, after
   convergence.  A frame lays out the globals, then the own variables
   (formals and locals, by vid) of each lexical ancestor, outermost
   first, then the procedure's own.  A variable's compact id is then
   the same in every frame that holds it, and since a callee's parent
   is an ancestor-or-self of the caller (enforced by [Ir.Validate]),
   the callee's frame below its own tail is a prefix of the caller's.
   Every vector the solver builds has length [G + Σ own along the
   chain], independent of program size. *)
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

(* The image in the caller's frame of one fact [c] of the callee's
   MUSTMOD, carried through call site [sid] — the same projection the
   dataflow kill sets use.  Below the callee's own tail the ids pass
   through unchanged (globals and the ancestors' variables, laid out
   alike in both frames); in the tail, a by-ref formal lands on a scalar
   whole-variable actual and everything else (callee locals, by-value
   formals, element and dereference actuals — a dereference may-defines
   its targets but never must-defines any one of them) is dropped: -1. *)
let project fr prog sid callee c =
  if c < fr.base.(callee) then c
  else
    match (Prog.var prog (vid_of fr callee c)).Prog.kind with
    | Prog.Formal { index; mode = Prog.By_ref; _ } -> (
      match (Prog.site prog sid).Prog.args.(index) with
      | Prog.Arg_ref (E.Lvar b) when not (Ir.Types.is_array (Prog.var prog b).Prog.vty) ->
        fr.cid.(b)
      | Prog.Arg_ref _ | Prog.Arg_value _ -> -1)
    | Prog.Formal _ | Prog.Local _ | Prog.Global -> -1

let expand fr nv pid compact =
  let out = Bitvec.create nv in
  Bitvec.iter (fun c -> Bitvec.set out (vid_of fr pid c)) compact;
  out

(* Definite assignments of a statement sequence by its own statements,
   by structural recursion: a sequence accumulates, a conditional
   contributes the intersection of its branches, a loop body
   contributes nothing (zero iterations), a [for] header always writes
   its index.  MiniProc control flow is fully structured, so these
   equations coincide with the least fixpoint of the forward must-reach
   system over the procedure's CFG.  The component solver below derives
   the same equations fact by fact, with the call projection added. *)
let rec seq_gen fr len acc stmts = List.iter (stmt_gen fr len acc) stmts

and stmt_gen fr len acc = function
  | Stmt.Assign (E.Lvar x, _) | Stmt.Read (E.Lvar x) | Stmt.For (x, _, _, _) ->
    Bitvec.set acc fr.cid.(x)
  | Stmt.If (_, t, e) ->
    let bt = Bitvec.create len in
    let be = Bitvec.create len in
    seq_gen fr len bt t;
    seq_gen fr len be e;
    ignore (Bitvec.inter_into ~src:be ~dst:bt);
    ignore (Bitvec.union_into ~src:bt ~dst:acc)
  | Stmt.Assign _ | Stmt.Read _ | Stmt.Write _ | Stmt.While _ | Stmt.Call _ -> ()

(* The call-free IMUSTDEF, on the full universe. *)
let imustdef fr prog nv pid =
  let len = frame_len fr pid in
  let acc = Bitvec.create len in
  seq_gen fr len acc (Prog.proc prog pid).Prog.body;
  expand fr nv pid acc

type state = {
  call : Call.t;  (* the call graph and the condensation the solve rides *)
  frame : frame;
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

let rounds_metric = Obs.Metric.counter "mustmod.rounds"
let facts_metric = Obs.Metric.counter "mustmod.facts"

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
  Alias.iter_pairs alias pid (fun x y tainted ->
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
        demote y);
  v

(* --- the component solver ----------------------------------------------

   One solve of a component walks each member's body once and derives
   must facts one at a time, each at most once per scope.  A scope is a
   body root or one branch of an [if] outside a loop body; loop and
   [for] bodies contribute nothing (zero iterations), so they are not
   walked.  A fact enters a scope from a whole-variable assignment, a
   [read] or a [for] header in it, or through a call site in it as the
   projection of one fact of the callee's MUSTMOD.  A branch passes a
   fact up to its enclosing scope once the other branch of its [if]
   holds it too: the intersection of the structural equations, paid per
   fact.  At a body root a fact enters MUSTMOD unless the procedure's
   demotion set holds it or its GMOD does not (a must-write is a
   may-write — the enforced MUSTMOD ⊆ GMOD invariant), and is then
   projected through the sites inside the component that call the
   procedure, self-calls included.  A site met after its callee already
   has facts takes them on the spot, so the order the members are
   walked in does not change the result.

   Components are numbered in reverse topological order of the call
   condensation, so a component solved after its callee components sees
   their values final — the same leaves-to-roots convention as Figure
   1's step 3.  The members start at ∅ and only grow, so the derivation
   stops at the least fixpoint of the structural equations: recursion
   keeps only what every unrolling agrees on, and on a re-solve stale
   bits of a write an edit removed cannot survive.  The work is the
   members' bodies plus one step per fact a call site projects; a
   derived fact is a point operation, which [bitvec.word_ops] does not
   see, so [mustmod.facts] counts them.  Returns the members solved and
   the facts derived. *)

type scope = {
  owner : int;  (* the member whose body holds the scope *)
  parent : int;  (* the enclosing scope, -1 at a body root *)
  mutable sibling : int;  (* the other branch of the same [if] *)
  facts : Bitvec.t;  (* in [owner]'s frame *)
}

let solve_comp prog st ~gmod ~demoted c =
  let fr = st.frame in
  let scc = st.call.Call.scc in
  let members = scc.Scc.members.(c) in
  let scopes = ref [||] and n_scopes = ref 0 in
  let new_scope owner parent =
    let sc = { owner; parent; sibling = -1; facts = Bitvec.create (frame_len fr owner) } in
    if !n_scopes = Array.length !scopes then
      scopes := Array.append !scopes (Array.make (max 8 !n_scopes) sc);
    !scopes.(!n_scopes) <- sc;
    incr n_scopes;
    !n_scopes - 1
  in
  (* Derived (scope, fact) pairs not yet passed on, flattened. *)
  let pending = ref (Array.make 64 0) and n_pending = ref 0 in
  let push x =
    if !n_pending = Array.length !pending then
      pending := Array.append !pending (Array.make !n_pending 0);
    !pending.(!n_pending) <- x;
    incr n_pending
  in
  let facts = ref 0 in
  let add s x =
    if x >= 0 && not (Bitvec.get !scopes.(s).facts x) then begin
      Bitvec.set !scopes.(s).facts x;
      incr facts;
      push s;
      push x
    end
  in
  (* The component's call sites by callee, as (scope, sid). *)
  let sites = Hashtbl.create 8 in
  let sites_of q = Option.value ~default:[] (Hashtbl.find_opt sites q) in
  let rec walk s stmts = List.iter (stmt s) stmts
  and stmt s = function
    | Stmt.Assign (E.Lvar x, _) | Stmt.Read (E.Lvar x) | Stmt.For (x, _, _, _) ->
      add s fr.cid.(x)
    | Stmt.If (_, t, e) ->
      let owner = !scopes.(s).owner in
      let bt = new_scope owner s in
      let be = new_scope owner s in
      !scopes.(bt).sibling <- be;
      !scopes.(be).sibling <- bt;
      walk bt t;
      walk be e
    | Stmt.Call sid ->
      let q = (Prog.site prog sid).Prog.callee in
      if scc.Scc.comp.(q) = c then Hashtbl.replace sites q ((s, sid) :: sites_of q);
      Bitvec.iter (fun x -> add s (project fr prog sid q x)) st.must_c.(q)
    | Stmt.Assign _ | Stmt.Read _ | Stmt.Write _ | Stmt.While _ -> ()
  in
  let enter pid x =
    let vid = vid_of fr pid x in
    if Bitvec.get gmod.(pid) vid && not (Bitvec.get demoted.(pid) vid) then begin
      Bitvec.set st.must_c.(pid) x;
      List.iter (fun (s, sid) -> add s (project fr prog sid pid x)) (sites_of pid)
    end
  in
  let drain () =
    while !n_pending > 0 do
      let s = !pending.(!n_pending - 2) and x = !pending.(!n_pending - 1) in
      n_pending := !n_pending - 2;
      let sc = !scopes.(s) in
      if sc.parent < 0 then enter sc.owner x
      else if Bitvec.get !scopes.(sc.sibling).facts x then add sc.parent x
    done
  in
  List.iter (fun pid -> st.must_c.(pid) <- Bitvec.create (frame_len fr pid)) members;
  List.iter
    (fun pid ->
      walk (new_scope pid (-1)) (Prog.proc prog pid).Prog.body;
      drain ())
    members;
  (List.length members, !facts)

(* [solve_comp] for the components [seeds] names and the ancestors a
   moved value reaches, as a condensation wavefront: a component runs
   only after every callee component's level completed, so it reads
   final successor values.  Per-component work is the same with or
   without a pool, hence results and counted op totals are too.  With
   [prev] (the values before an edit) a component moved iff one of its
   members' sets differs from it, and [note] sees each member that did;
   without it (batch: every component runs anyway) nothing is
   compared.  Returns the rounds. *)
let propagate ?prev pool prog st ~gmod ~demoted ~seeds =
  let scc = st.call.Call.scc in
  let slot_rounds = Array.make (Par.Pool.slots pool) 0 in
  let slot_facts = Array.make (Par.Pool.slots pool) 0 in
  ignore
    (Par.Wavefront.resolve pool scc ~seeds
       ~cost:(fun c ->
         List.fold_left
           (fun acc pid -> acc + Stmt.count (Prog.proc prog pid).Prog.body)
           1 scc.Scc.members.(c))
       ~f:(fun ~slot ~comp ->
         let rounds, facts = solve_comp prog st ~gmod ~demoted comp in
         slot_rounds.(slot) <- slot_rounds.(slot) + rounds;
         slot_facts.(slot) <- slot_facts.(slot) + facts;
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
  Obs.Metric.add facts_metric (Array.fold_left ( + ) 0 slot_facts);
  let rounds = Array.fold_left ( + ) 0 slot_rounds in
  Obs.Metric.add rounds_metric rounds;
  rounds

let solve ?pool info call ~alias ~gmod =
  Obs.Span.with_ "mustmod" @@ fun () ->
  let prog = Ir.Info.prog info in
  let nv = Ir.Info.n_vars info in
  let np = Prog.n_procs prog in
  let frame = build_frame prog in
  (* The call-free IMUSTDEF, always computed (not only under
     provenance) so counted op totals are identical either way; it is
     also what [sidefx must] reports as the intraprocedural column. *)
  let intra = Array.init np (imustdef frame prog nv) in
  let demoted = Array.init np (fun pid -> demotions info alias pid) in
  let st =
    { call; frame; must_c = Array.init np (fun pid -> Bitvec.create (frame_len frame pid)) }
  in
  let rounds = propagate pool prog st ~gmod ~demoted ~seeds:Par.Wavefront.All in
  let mustmod = Array.mapi (expand frame nv) st.must_c in
  { prog; mustmod; intra; demoted; rounds; state = st }

(* Copies before it writes: a server session re-solves from the
   registry's shared record, which must not change. *)
let resolve ?pool r info ~alias ~gmod ~changed_procs =
  Obs.Span.with_ "mustmod.region" @@ fun () ->
  let prog = Ir.Info.prog info in
  let nv = Ir.Info.n_vars info in
  let fr = r.state.frame in
  (* Re-derive the per-procedure ingredients of the edited procedures
     (body gen and alias demotion can shift under a body edit; the GMOD
     cap is read from [gmod]), then re-solve their components and the
     ancestors a moved value reaches. *)
  let intra = Array.copy r.intra in
  let demoted = Array.copy r.demoted in
  let mustmod = Array.copy r.mustmod in
  let st = { r.state with must_c = Array.copy r.state.must_c } in
  List.iter
    (fun pid ->
      intra.(pid) <- imustdef fr prog nv pid;
      demoted.(pid) <- demotions info alias pid)
    changed_procs;
  let scc = st.call.Call.scc in
  let rounds =
    propagate pool prog st ~gmod ~demoted
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
