module Binding = Callgraph.Binding
module Digraph = Graphs.Digraph
module Prog = Ir.Prog

type result = {
  binding : Binding.t;
  rsd : Section.t array;
}

let solve info (binding : Binding.t) ~unstable ~lrsd =
  let prog = Ir.Info.prog info in
  let g = binding.Binding.graph in
  let n = Digraph.n_nodes g in
  let rsd =
    Array.init n (fun node ->
        let vid = Binding.var binding node in
        let owner =
          match (Prog.var prog vid).Prog.kind with
          | Prog.Formal { proc; _ } -> proc
          | Prog.Global | Prog.Local _ -> assert false
        in
        Secmap.get lrsd.(owner) vid)
  in
  let joins = ref 0 in
  (* Worklist iteration over β edges: propagate callee sections to the
     caller's formal through g_e. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Digraph.iter_edges g (fun e m n_node ->
        let { Binding.site; arg_pos; via_element = _ } = binding.Binding.edges.(e) in
        let site = Prog.site prog site in
        let callee_section = rsd.(n_node) in
        if not (Section.equal callee_section Section.bottom) then begin
          let base, induced =
            Bindfn.project info ~site ~arg_pos
              ~caller_unstable:unstable.(site.Prog.caller) ~callee_section
          in
          assert (base = Binding.var binding m);
          incr joins;
          let joined = Section.join rsd.(m) induced in
          if not (Section.equal joined rsd.(m)) then begin
            rsd.(m) <- joined;
            changed := true
          end
        end)
  done;
  Section.count_joins !joins;
  { binding; rsd }

let section_of r vid =
  match Binding.node_opt r.binding vid with
  | None -> Section.bottom
  | Some node -> r.rsd.(node)
