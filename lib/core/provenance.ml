(* Derivation forests for the finished solutions.  See provenance.mli.

   Everything here reads bits with [Bitvec.get] only — no counted
   operations, not even [Bitvec.fold]/[iter] (those count one vector op
   per call) — so building provenance leaves the op-count metrics
   exactly as the solvers left them. *)

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
let create_must_table () : must_table = Hashtbl.create 64

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

(* --- GMOD forest ------------------------------------------------------ *)

(* Seeds are the IMOD+ bits, classified by the three exhaustive cases
   of eq. 5 under the §3.3 nesting fold; propagation is eq. 4 walked
   callee-to-caller over the call sites. *)
let gmod_forest info ~flat ~rmod ~plus ~gsets ~sites_by_callee =
  let prog = Ir.Info.prog info in
  let table : (int * int, gmod_reason) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  let assign pid vid reason =
    if not (Hashtbl.mem table (pid, vid)) then begin
      Hashtbl.add table (pid, vid) reason;
      Queue.add (pid, vid) queue
    end
  in
  (* Why is [vid ∈ IMOD+(p)]?  Either it is in the flat local set, or
     a by-reference binding at one of p's sites projects an RMOD
     formal onto it, or it escaped from a nested child. *)
  let seed_reason (pr : Prog.proc) vid =
    let pid = pr.Prog.pid in
    if Hashtbl.mem flat (pid, vid) then Some Glocal
    else begin
      let found = ref None in
      Prog.iter_sites prog (fun (s : Prog.site) ->
          if !found = None && s.Prog.caller = pid then begin
            let callee = Prog.proc prog s.Prog.callee in
            Array.iteri
              (fun i arg ->
                match arg with
                | Prog.Arg_value _ -> ()
                | Prog.Arg_ref lv ->
                  if
                    !found = None
                    && List.mem vid (Ir.Info.lvalue_cells info lv)
                    && Rmod.modified rmod callee.Prog.formals.(i)
                  then found := Some (Gbind { site = s.Prog.sid; arg_pos = i }))
              s.Prog.args
          end);
      match !found with
      | Some _ as r -> r
      | None ->
        List.fold_left
          (fun acc child_pid ->
            match acc with
            | Some _ -> acc
            | None ->
              if
                Bitvec.get plus.(child_pid) vid
                && not (Bitvec.get (Ir.Info.local info child_pid) vid)
              then Some (Gnested child_pid)
              else None)
          None pr.Prog.nested
    end
  in
  (* Scan with [Bitvec.get] rather than [Bitvec.fold]: [fold] counts a
     vector op per call, and provenance must be invisible to the
     op-count contracts. *)
  let nv = Ir.Info.n_vars info in
  Prog.iter_procs prog (fun pr ->
      let pid = pr.Prog.pid in
      for vid = 0 to nv - 1 do
        if Bitvec.get plus.(pid) vid then
          match seed_reason pr vid with
          | Some r -> assign pid vid r
          | None -> ()
      done);
  (* Eq. 4: a caller inherits every non-local bit of its callee. *)
  while not (Queue.is_empty queue) do
    let q, vid = Queue.take queue in
    if not (Bitvec.get (Ir.Info.local info q) vid) then
      List.iter
        (fun (s : Prog.site) ->
          if Bitvec.get gsets.(s.Prog.caller) vid then
            assign s.Prog.caller vid (Gcall s.Prog.sid))
        sites_by_callee.(q)
  done;
  table

let compute ?(must = create_must_table ())
    info ~binding ~imod ~iuse ~rmod ~ruse ~imod_plus ~iuse_plus ~gmod ~guse
    ~alias =
  let prog = Ir.Info.prog info in
  let sites_by_callee = Array.make (Prog.n_procs prog) [] in
  Prog.iter_sites prog (fun s ->
      sites_by_callee.(s.Prog.callee) <- s :: sites_by_callee.(s.Prog.callee));
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
  let flat_mod = flat_table Frontend.Local.lmod_stmt in
  let flat_use = flat_table Frontend.Local.luse_stmt in
  {
    rmod = rmod_forest binding ~imod;
    ruse = rmod_forest binding ~imod:iuse;
    gmod =
      gmod_forest info ~flat:flat_mod ~rmod ~plus:imod_plus ~gsets:gmod
        ~sites_by_callee;
    guse =
      gmod_forest info ~flat:flat_use ~rmod:ruse ~plus:iuse_plus
        ~gsets:guse ~sites_by_callee;
    alias;
    must;
  }

let rmod_reasons t ~side = match side with `Mod -> t.rmod | `Use -> t.ruse
let gmod_reasons t ~side = match side with `Mod -> t.gmod | `Use -> t.guse

let alias_reason t ~proc x y =
  let x, y = if x <= y then (x, y) else (y, x) in
  Hashtbl.find_opt t.alias (proc, x, y)

let must_reason_of t ~proc vid = Hashtbl.find_opt t.must (proc, vid)
