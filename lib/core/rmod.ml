module Binding = Callgraph.Binding
module Digraph = Graphs.Digraph
module Scc = Graphs.Scc
module Prog = Ir.Prog

type state = {
  comp_val : bool array;
  seed : bool array;
}

type result = {
  binding : Binding.t;
  rmod : bool array;
  steps : int;
  state : state;
}

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

(* Steps 2-4 for the components [seeds] names and their condensation
   ancestors, over β's own condensation (step 1, computed with the
   graph).  One transfer per component applies equation (6): the
   members' seed bits or'ed with the successor components' values;
   when the value moves it is copied back to the members.  The driver
   runs a component only if it is a seed or a successor's value moved,
   and every successor sits at a lower level, so it reads final values.
   [state] and [rmod] are written in place; steps are counted per
   worker slot and summed after the last join.  Returns the result and
   the β nodes whose bit changed. *)
let propagate pool (binding : Binding.t) state rmod ~steps ~seeds =
  let scc = binding.Binding.scc in
  let slot_steps = Array.make (Par.Pool.slots pool) 0 in
  let changed =
    Par.Wavefront.resolve pool scc ~seeds
      ~cost:(fun c -> 1 + Array.length scc.Scc.succs.(c))
      ~f:(fun ~slot ~comp:c ->
        let st = ref 0 in
        let step b = incr st; b in
        let v =
          List.exists (fun node -> step state.seed.(node)) scc.Scc.members.(c)
          || Array.exists (fun cd -> step state.comp_val.(cd)) scc.Scc.succs.(c)
        in
        let moved = v <> state.comp_val.(c) in
        if moved then begin
          state.comp_val.(c) <- v;
          List.iter (fun node -> rmod.(node) <- step v) scc.Scc.members.(c)
        end;
        slot_steps.(slot) <- slot_steps.(slot) + !st;
        moved)
  in
  let steps = Array.fold_left ( + ) steps slot_steps in
  Obs.Metric.add steps_metric steps;
  ( { binding; rmod; steps; state },
    List.concat_map (fun c -> scc.Scc.members.(c)) changed )

(* Batch is the edit from all-false with every seed read and every
   component dirty. *)
let solve ?(label = "rmod") ?pool (binding : Binding.t) ~imod =
  Obs.Span.with_ label @@ fun () ->
  let n = Digraph.n_nodes binding.Binding.graph in
  let state =
    {
      comp_val = Array.make binding.Binding.scc.Scc.n_comps false;
      seed = Array.init n (seed_bit binding imod);
    }
  in
  fst (propagate pool binding state (Array.make n false) ~steps:n ~seeds:Par.Wavefront.All)

(* Copies before it writes: a server session re-solves from the
   registry's shared record, which must not change. *)
let resolve ?(label = "rmod.region") ?pool r ~imod ~changed_procs =
  Obs.Span.with_ label @@ fun () ->
  let binding = r.binding in
  let state = { comp_val = Array.copy r.state.comp_val; seed = Array.copy r.state.seed } in
  (* Re-read the seed bit of the β nodes (by-reference formals) of the
     procedures whose IMOD may have changed; a flipped bit seeds the
     node's component. *)
  let steps = ref 0 and seeds = ref [] in
  List.iter
    (fun pid ->
      Array.iter
        (fun vid ->
          match Binding.node_opt binding vid with
          | None -> ()
          | Some node ->
            incr steps;
            let b = seed_bit binding imod node in
            if b <> state.seed.(node) then begin
              state.seed.(node) <- b;
              seeds := binding.Binding.scc.Scc.comp.(node) :: !seeds
            end)
        (Prog.proc binding.Binding.prog pid).Prog.formals)
    changed_procs;
  propagate pool binding state (Array.copy r.rmod) ~steps:!steps
    ~seeds:(Par.Wavefront.Comps !seeds)

let modified r vid =
  match Binding.node_opt r.binding vid with
  | None -> false
  | Some node -> r.rmod.(node)

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
