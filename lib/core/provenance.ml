(* Derivation forests for the finished solutions.  See provenance.mli.

   Everything here reads bits with [Bitvec.get] and
   [Bitvec.iter_uncounted] only — no counted operations, not even
   [Bitvec.fold]/[iter] (those count one vector op per call) — so
   building provenance leaves the op-count metrics exactly as the
   solvers left them. *)

module Prog = Ir.Prog
module Binding = Callgraph.Binding
module Digraph = Graphs.Digraph

type rmod_reason = Rseed | Redge of int

type gmod_reason =
  | Glocal
  | Gbind of { site : int; arg_pos : int }
  | Gnested of int
  | Gcall of int

type alias_reason =
  | Apositions of { site : int; pos_i : int; pos_j : int }
  | Avisible of { site : int; pos : int }
  | Apropagated of { site : int; from_pair : int * int }
  | Ainherited of { parent : int }
  | Apointsto of { site : int; pos : int }

type alias_table = (int * int * int, alias_reason) Hashtbl.t

type must_reason =
  | Mdef
  | Mcall of { site : int; pre : int }

type must_table = (int * int, must_reason) Hashtbl.t

type t = {
  rmod : rmod_reason option array;
  ruse : rmod_reason option array;
  gmod : (int * int, gmod_reason) Hashtbl.t;
  guse : (int * int, gmod_reason) Hashtbl.t;
  alias : alias_table;
  must : must_table;
}

let create_alias_table () : alias_table = Hashtbl.create 64

(* --- RMOD forest ------------------------------------------------------ *)

(* [RMOD(node)] is true iff some β path from [node] reaches a seed
   node (eq. 6 unrolled to its least fixpoint).  A BFS from the seeds
   along reversed β edges therefore reaches exactly the set nodes;
   the edge that first reaches a node is its reason. *)
let rmod_forest (binding : Binding.t) ~imod =
  let prog = binding.Binding.prog in
  let g = binding.Binding.graph in
  let n = Digraph.n_nodes g in
  let seed_bit node =
    let vid = Binding.var binding node in
    match (Prog.var prog vid).Prog.kind with
    | Prog.Formal { proc; _ } -> Bitvec.get imod.(proc) vid
    | Prog.Global | Prog.Local _ -> assert false
  in
  (* Incoming edges of each node, as (edge id, source). *)
  let preds = Array.make n [] in
  Digraph.iter_edges g (fun eid src dst -> preds.(dst) <- (eid, src) :: preds.(dst));
  let reason = Array.make n None in
  let queue = Queue.create () in
  for node = 0 to n - 1 do
    if seed_bit node then begin
      reason.(node) <- Some Rseed;
      Queue.add node queue
    end
  done;
  while not (Queue.is_empty queue) do
    let dst = Queue.take queue in
    List.iter
      (fun (eid, src) ->
        if reason.(src) = None then begin
          reason.(src) <- Some (Redge eid);
          Queue.add src queue
        end)
      preds.(dst)
  done;
  reason

(* --- call-graph forests ----------------------------------------------- *)

(* GMOD/GUSE (eq. 4) and MUSTMOD both grow callee-to-caller through the
   call sites.  [seed assign] assigns the terminal reasons, in order;
   then a fact [(q, u)] reaches, through each site [s] calling [q], the
   caller-side fact [(caller, w)] with reason [r] when
   [step q u s = Some (w, r)].  Each fact keeps the first reason
   assigned, so the forest is acyclic even inside call cycles.
   [by_callee] lists each procedure's incoming sites by ascending sid;
   [descending] walks them the other way.  Which facts hold so far is
   one bit per [(pid, vid)], in a row of [n_vars] bits a procedure gets
   with its first fact, so a visit costs a byte probe, not a hash of
   the pair; the table holds only the reasons. *)
let first_reasons ~n_vars by_callee ~descending ~seed ~step =
  let table = Hashtbl.create 256 in
  let held = Array.make (Array.length by_callee) Bytes.empty in
  let queue = Queue.create () in
  let assign pid vid reason =
    if Bytes.length held.(pid) = 0 then
      held.(pid) <- Bytes.make ((n_vars + 7) / 8) '\000';
    let row = held.(pid) in
    let byte = Char.code (Bytes.get row (vid lsr 3)) in
    let bit = 1 lsl (vid land 7) in
    if byte land bit = 0 then begin
      Bytes.set row (vid lsr 3) (Char.chr (byte lor bit));
      Hashtbl.add table (pid, vid) reason;
      Queue.add (pid, vid) queue
    end
  in
  seed assign;
  while not (Queue.is_empty queue) do
    let q, u = Queue.take queue in
    let visit (s : Prog.site) =
      Option.iter (fun (w, r) -> assign s.Prog.caller w r) (step q u s)
    in
    let sites = by_callee.(q) in
    if descending then
      for i = Array.length sites - 1 downto 0 do
        visit sites.(i)
      done
    else Array.iter visit sites
  done;
  table

(* Seeds are the IMOD+ bits, classified by the three exhaustive cases
   of eq. 5 under the §3.3 nesting fold; propagation is eq. 4: a caller
   inherits every non-local bit of its callee, callees walked by
   descending sid. *)
let gmod_forest info ~by_callee ~by_caller ~flat ~rmod ~plus ~gsets =
  let prog = Ir.Info.prog info in
  (* Does [s] pass [vid] by reference into a formal whose RMOD holds —
     the caller-side projection of eq. 5? *)
  let binds vid (s : Prog.site) =
    let formals = (Prog.proc prog s.Prog.callee).Prog.formals in
    let rec from i =
      if i = Array.length s.Prog.args then None
      else
        match s.Prog.args.(i) with
        | Prog.Arg_ref lv
          when List.mem vid (Ir.Info.lvalue_cells info lv)
               && Rmod.modified rmod formals.(i) ->
          Some (Gbind { site = s.Prog.sid; arg_pos = i })
        | Prog.Arg_ref _ | Prog.Arg_value _ -> from (i + 1)
    in
    from 0
  in
  let escapes vid child =
    Bitvec.get plus.(child) vid && not (Bitvec.get (Ir.Info.local info child) vid)
  in
  (* Why is [vid ∈ IMOD+(p)]?  Either it is in the flat local set, or
     a binding at one of p's own sites (ascending sid) projects an RMOD
     formal onto it, or it escaped from a nested child. *)
  let seed_reason (pr : Prog.proc) vid =
    let pid = pr.Prog.pid in
    if Hashtbl.mem flat (pid, vid) then Some Glocal
    else
      match Array.find_map (binds vid) by_caller.(pid) with
      | Some _ as r -> r
      | None ->
        Option.map (fun c -> Gnested c) (List.find_opt (escapes vid) pr.Prog.nested)
  in
  first_reasons ~n_vars:(Prog.n_vars prog) by_callee ~descending:true
    ~seed:(fun assign ->
      Prog.iter_procs prog (fun pr ->
          Bitvec.iter_uncounted
            (fun vid -> Option.iter (assign pr.Prog.pid vid) (seed_reason pr vid))
            plus.(pr.Prog.pid)))
    ~step:(fun q u s ->
      if Bitvec.get (Ir.Info.local info q) u || not (Bitvec.get gsets.(s.Prog.caller) u)
      then None
      else Some (u, Gcall s.Prog.sid))

(* Seeds are the facts the procedure's own statements already
   guarantee ([MUSTMOD ∩ IMUSTDEF]); propagation follows [Mustmod]'s
   call-site projection, callees walked by ascending sid: a bound
   by-reference formal lands on its whole-variable actual, the callee's
   other own variables stay behind, everything else passes through. *)
let must_forest prog ~by_callee ~mustmod ~intra =
  first_reasons ~n_vars:(Prog.n_vars prog) by_callee ~descending:false
    ~seed:(fun assign ->
      Prog.iter_procs prog (fun pr ->
          let pid = pr.Prog.pid in
          Bitvec.iter_uncounted
            (fun vid -> if Bitvec.get intra.(pid) vid then assign pid vid Mdef)
            mustmod.(pid)))
    ~step:(fun q u (s : Prog.site) ->
      let lands =
        match (Prog.var prog u).Prog.kind with
        | Prog.Formal { proc; index; mode = Prog.By_ref } when proc = q -> (
          match s.Prog.args.(index) with
          | Prog.Arg_ref (Ir.Expr.Lvar b) -> Some b
          | Prog.Arg_ref (Ir.Expr.Lindex _ | Ir.Expr.Lderef _) | Prog.Arg_value _ ->
            None)
        | Prog.Formal { proc; _ } when proc = q -> None
        | Prog.Local owner when owner = q -> None
        | Prog.Formal _ | Prog.Local _ | Prog.Global -> Some u
      in
      match lands with
      | Some w when Bitvec.get mustmod.(s.Prog.caller) w ->
        Some (w, Mcall { site = s.Prog.sid; pre = u })
      | Some _ | None -> None)

let compute info ~binding ~imod ~iuse ~rmod ~ruse ~imod_plus ~iuse_plus ~gmod
    ~guse ~mustmod ~intra ~alias =
  let prog = Ir.Info.prog info in
  (* Both site indexes by ascending sid, built in one pass. *)
  let by_callee = Array.make (Prog.n_procs prog) [] in
  let by_caller = Array.make (Prog.n_procs prog) [] in
  Prog.iter_sites prog (fun s ->
      by_callee.(s.Prog.callee) <- s :: by_callee.(s.Prog.callee);
      by_caller.(s.Prog.caller) <- s :: by_caller.(s.Prog.caller));
  let ascending = Array.map (fun l -> Array.of_list (List.rev l)) in
  let by_callee = ascending by_callee and by_caller = ascending by_caller in
  (* The flat LMOD/LUSE families, as hash sets rather than through
     [Frontend.Local.imod_flat]: allocating bit vectors would count
     ops, and provenance must stay invisible to the op-count
     contracts. *)
  let flat_table per_stmt =
    let tbl : (int * int, unit) Hashtbl.t = Hashtbl.create 512 in
    Prog.iter_procs prog (fun pr ->
        Ir.Stmt.iter
          (fun s ->
            List.iter
              (fun v -> Hashtbl.replace tbl (pr.Prog.pid, v) ())
              (per_stmt info s))
          pr.Prog.body);
    tbl
  in
  {
    rmod = rmod_forest binding ~imod;
    ruse = rmod_forest binding ~imod:iuse;
    gmod =
      gmod_forest info ~by_callee ~by_caller
        ~flat:(flat_table Frontend.Local.lmod_stmt) ~rmod ~plus:imod_plus
        ~gsets:gmod;
    guse =
      gmod_forest info ~by_callee ~by_caller
        ~flat:(flat_table Frontend.Local.luse_stmt) ~rmod:ruse ~plus:iuse_plus
        ~gsets:guse;
    alias;
    must = must_forest prog ~by_callee ~mustmod ~intra;
  }

let rmod_reasons t ~side = match side with `Mod -> t.rmod | `Use -> t.ruse
let gmod_reasons t ~side = match side with `Mod -> t.gmod | `Use -> t.guse

let alias_reason t ~proc x y =
  let x, y = if x <= y then (x, y) else (y, x) in
  Hashtbl.find_opt t.alias (proc, x, y)

let must_reason_of t ~proc vid = Hashtbl.find_opt t.must (proc, vid)
