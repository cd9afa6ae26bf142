module Digraph = Graphs.Digraph
module Prog = Ir.Prog

(* GMOD[dst] ⊔= retarget(GMOD[src]) ∖ LOCAL[src]; returns whether dst
   changed. *)
let add_escaped info ~immutable ~joins gmod ~src ~dst =
  let mask = Ir.Info.non_local info src in
  let changed = ref false in
  Secmap.iter
    (fun vid s ->
      if Bitvec.get mask vid then begin
        let widened = Bindfn.retarget_global ~immutable s in
        incr joins;
        if Secmap.add gmod.(dst) vid widened then changed := true
      end)
    gmod.(src);
  !changed

let solve_iterative info (call : Callgraph.Call.t) ~immutable ~seed =
  let g = call.Callgraph.Call.graph in
  let gmod = Array.map Secmap.copy seed in
  let joins = ref 0 in
  let add_escaped = add_escaped info ~immutable ~joins gmod in
  let changed = ref true in
  while !changed do
    changed := false;
    Digraph.iter_edges g (fun _ p q ->
        if add_escaped ~src:q ~dst:p then changed := true)
  done;
  Section.count_joins !joins;
  gmod

let solve info (call : Callgraph.Call.t) ~immutable ~seed =
  let g = call.Callgraph.Call.graph in
  let n = Digraph.n_nodes g in
  let prog = call.Callgraph.Call.prog in
  let gmod = Array.map Secmap.copy seed in
  let joins = ref 0 in
  let add_escaped = add_escaped info ~immutable ~joins gmod in
  let dfn = Array.make n 0 in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let tarjan_stack = ref [] in
  let next_dfn = ref 1 in
  let close_component root =
    let rec pop () =
      match !tarjan_stack with
      | [] -> assert false
      | u :: rest ->
        tarjan_stack := rest;
        on_stack.(u) <- false;
        if u <> root then ignore (add_escaped ~src:root ~dst:u);
        if u <> root then pop ()
    in
    pop ()
  in
  let succs = Array.make n [||] in
  for v = 0 to n - 1 do
    let deg = Digraph.out_degree g v in
    let a = Array.make deg 0 in
    let i = ref 0 in
    Digraph.iter_succ g v (fun w ->
        a.(!i) <- w;
        incr i);
    succs.(v) <- a
  done;
  let frame_node = Array.make (n + 1) 0 in
  let frame_next = Array.make (n + 1) 0 in
  let search root =
    if dfn.(root) = 0 then begin
      let sp = ref 0 in
      let push v =
        dfn.(v) <- !next_dfn;
        lowlink.(v) <- !next_dfn;
        incr next_dfn;
        tarjan_stack := v :: !tarjan_stack;
        on_stack.(v) <- true;
        frame_node.(!sp) <- v;
        frame_next.(!sp) <- 0;
        incr sp
      in
      push root;
      while !sp > 0 do
        let v = frame_node.(!sp - 1) in
        let i = frame_next.(!sp - 1) in
        if i < Array.length succs.(v) then begin
          frame_next.(!sp - 1) <- i + 1;
          let q = succs.(v).(i) in
          if dfn.(q) = 0 then push q
          else if on_stack.(q) && dfn.(q) < dfn.(v) then
            lowlink.(v) <- min dfn.(q) lowlink.(v)
          else ignore (add_escaped ~src:q ~dst:v)
        end
        else begin
          decr sp;
          if lowlink.(v) = dfn.(v) then close_component v;
          if !sp > 0 then begin
            let parent = frame_node.(!sp - 1) in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v);
            ignore (add_escaped ~src:v ~dst:parent)
          end
        end
      done
    end
  in
  search prog.Prog.main;
  for v = 0 to n - 1 do
    search v
  done;
  Section.count_joins !joins;
  gmod
