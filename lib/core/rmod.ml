module Binding = Callgraph.Binding
module Digraph = Graphs.Digraph
module Scc = Graphs.Scc
module Prog = Ir.Prog

type state = {
  scc : Scc.result;
  members : int list array;
  edges_by_comp : int list array;
  preds_by_comp : int list array;
  comp_val : bool array;
  seed : bool array;
}

type result = {
  binding : Binding.t;
  rmod : bool array;
  steps : int;
  state : state;
}

module Int_set = Set.Make (Int)

(* The paper's O(Nβ + Eβ) bound counts simple boolean steps; mirror the
   per-result [steps] field into the registry so spans see it. *)
let steps_metric = Obs.Metric.counter "rmod.steps"

let owner_of (binding : Binding.t) node =
  let vid = Binding.var binding node in
  match (Prog.var binding.Binding.prog vid).Prog.kind with
  | Prog.Formal { proc; _ } -> proc
  | Prog.Global | Prog.Local _ -> assert false

let seed_bit (binding : Binding.t) imod node =
  Bitvec.get imod.(owner_of binding node) (Binding.var binding node)

let solve ?(label = "rmod") ?pool (binding : Binding.t) ~imod =
  Obs.Span.with_ label @@ fun () ->
  let g = binding.Binding.graph in
  let n = Digraph.n_nodes g in
  (* Step 1: strongly-connected components of β (always sequential —
     graph work, outside the paper's boolean step count). *)
  let scc = Scc.compute g in
  let n_comps = scc.Scc.n_comps in
  let members = Scc.members scc in
  let comp_val = Array.make n_comps false in
  let seed = Array.make n false in
  let rmod = Array.make n false in
  let edges_by_comp = Array.make n_comps [] in
  let preds_by_comp = Array.make n_comps [] in
  Digraph.iter_edges g (fun _ src dst ->
      let cs = scc.Scc.comp.(src) and cd = scc.Scc.comp.(dst) in
      if cs <> cd then begin
        edges_by_comp.(cs) <- cd :: edges_by_comp.(cs);
        preds_by_comp.(cd) <- cs :: preds_by_comp.(cd)
      end);
  (* Steps 2 and 4 are independent per component / per node and run
     chunked over the pool; step 3 runs as a wavefront over the
     condensation levels, so a component only reads successor values
     made final before it.  Without a pool all three run inline on the
     caller.  Step counts accumulate per worker slot (each slot is
     owned by one domain) and are summed after the last join. *)
  let jobs = Par.Pool.slots pool in
  let slot_steps = Array.make jobs 0 in
  (* Step 2: each component's IMOD is the or of its members', by
     component so the node writes and the comp_val write are disjoint
     across tasks.  Sum of member counts = Nβ. *)
  Par.Pool.chunked pool n_comps (fun ~slot ~lo ~hi ->
      let st = ref 0 in
      for c = lo to hi - 1 do
        List.iter
          (fun node ->
            incr st;
            let b = seed_bit binding imod node in
            seed.(node) <- b;
            if b then comp_val.(c) <- true)
          members.(c)
      done;
      slot_steps.(slot) <- slot_steps.(slot) + !st);
  (* Step 3: leaves-to-roots pass over the condensation; one relaxation
     per edge applies equation (6).  Components are numbered in reverse
     topological order, and the plan runs every successor's level
     first.  Scheduled coarsely: singleton-level runs fuse into inline
     sequential stages, wide levels batch by per-component edge count,
     so a chain-shaped condensation never pays a barrier. *)
  let levels =
    Par.Wavefront.of_comp_succs ~n_comps ~succs_of:(fun c -> edges_by_comp.(c))
  in
  let plan =
    Par.Wavefront.plan levels ~jobs ~cost:(fun c ->
        1 + List.length edges_by_comp.(c))
  in
  Par.Wavefront.run_plan pool plan ~f:(fun ~slot ~comp:c ->
      let st = ref 0 in
      List.iter
        (fun cd ->
          incr st;
          if comp_val.(cd) then comp_val.(c) <- true)
        edges_by_comp.(c);
      slot_steps.(slot) <- slot_steps.(slot) + !st);
  (* Step 4: copy the representer's value back to every member. *)
  Par.Pool.chunked pool n (fun ~slot ~lo ~hi ->
      let st = ref 0 in
      for node = lo to hi - 1 do
        incr st;
        rmod.(node) <- comp_val.(scc.Scc.comp.(node))
      done;
      slot_steps.(slot) <- slot_steps.(slot) + !st);
  let steps = Array.fold_left ( + ) 0 slot_steps in
  Obs.Metric.add steps_metric steps;
  {
    binding;
    rmod;
    steps;
    state = { scc; members; edges_by_comp; preds_by_comp; comp_val; seed };
  }

(* Copies before it writes: a server session re-solves from the
   registry's shared record, which must not change. *)
let resolve ?(label = "rmod.region") r ~imod ~changed_procs =
  Obs.Span.with_ label @@ fun () ->
  let binding = r.binding and st = r.state in
  let prog = binding.Binding.prog in
  let steps = ref 0 in
  (* Re-read the seed bit of the β nodes (by-reference formals) of the
     procedures whose IMOD may have changed; a flipped bit queues the
     node's component. *)
  let seed = Array.copy st.seed in
  let queue = ref Int_set.empty in
  List.iter
    (fun pid ->
      Array.iter
        (fun vid ->
          match Binding.node_opt binding vid with
          | None -> ()
          | Some node ->
            incr steps;
            let b = seed_bit binding imod node in
            if b <> seed.(node) then begin
              seed.(node) <- b;
              queue := Int_set.add st.scc.Scc.comp.(node) !queue
            end)
        (Prog.proc prog pid).Prog.formals)
    changed_procs;
  (* Change propagation leaves-to-roots over the condensation.
     Components are numbered in reverse topological order, so taking
     the smallest queued component always sees final successor values;
     when a value actually changes, the component's condensation
     predecessors (all larger-numbered) join the queue.  The walk stops
     as soon as recomputed values come out unchanged — the
     condensation-ancestor cone, pruned. *)
  let comp_val = Array.copy st.comp_val in
  let changed_comps = ref [] in
  while not (Int_set.is_empty !queue) do
    let c = Int_set.min_elt !queue in
    queue := Int_set.remove c !queue;
    let v =
      List.exists
        (fun node ->
          incr steps;
          seed.(node))
        st.members.(c)
      || List.exists
           (fun cd ->
             incr steps;
             comp_val.(cd))
           st.edges_by_comp.(c)
    in
    if v <> comp_val.(c) then begin
      comp_val.(c) <- v;
      changed_comps := c :: !changed_comps;
      List.iter
        (fun cp ->
          incr steps;
          queue := Int_set.add cp !queue)
        st.preds_by_comp.(c)
    end
  done;
  let rmod = Array.copy r.rmod in
  let changed_nodes = ref [] in
  List.iter
    (fun c ->
      List.iter
        (fun node ->
          incr steps;
          rmod.(node) <- comp_val.(c);
          changed_nodes := node :: !changed_nodes)
        st.members.(c))
    !changed_comps;
  Obs.Metric.add steps_metric !steps;
  ( { binding; rmod; steps = !steps; state = { st with comp_val; seed } },
    !changed_nodes )

let modified r vid =
  match Binding.node_opt r.binding vid with
  | None -> false
  | Some node -> r.rmod.(node)

let to_var_set r =
  let set = Bitvec.create (Prog.n_vars r.binding.Binding.prog) in
  Array.iteri (fun node b -> if b then Bitvec.set set (Binding.var r.binding node)) r.rmod;
  set

let rmod_of_proc r pid =
  let prog = r.binding.Binding.prog in
  let formals = (Prog.proc prog pid).Prog.formals in
  Array.to_list formals |> List.filter (fun vid -> modified r vid)

let pp ppf r =
  let prog = r.binding.Binding.prog in
  Format.fprintf ppf "@[<v>";
  Prog.iter_procs prog (fun pr ->
      match rmod_of_proc r pr.Prog.pid with
      | [] -> ()
      | vids ->
        Format.fprintf ppf "RMOD(%s) = {%a}@," pr.Prog.pname
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
             (fun ppf vid -> Format.pp_print_string ppf (Prog.var prog vid).Prog.vname))
          vids);
  Format.fprintf ppf "@]"
