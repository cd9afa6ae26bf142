module Digraph = Graphs.Digraph
module Prog = Ir.Prog

(* --- per-level repetition (reference implementation) --- *)

let solve_by_levels ?(label = "gmod.by_levels") ?pool info
    (call : Callgraph.Call.t) ~imod_plus =
  Obs.Span.with_ label @@ fun () ->
  let prog = call.Callgraph.Call.prog in
  let dp = Prog.max_level prog in
  let result = Array.map Bitvec.copy imod_plus in
  (* One contribution scratch for the whole run, hot across levels. *)
  let scratch = Bitvec.create (Ir.Info.n_vars info) in
  for i = 1 to max 1 dp do
    (* C_i: drop edges whose callee is declared at a level < i. *)
    let call_i =
      Callgraph.Call.restrict call ~keep:(fun s ->
          (Prog.proc prog s.Prog.callee).Prog.level >= i)
    in
    let gmod_i = Gmod.solve ?pool info call_i ~imod_plus in
    (* Problem i owns the variables declared at level i - 1. *)
    let mask = Ir.Info.level_at_most info (i - 1) in
    let strict =
      if i = 1 then mask
      else Bitvec.diff mask (Ir.Info.level_at_most info (i - 2))
    in
    Array.iteri
      (fun pid g ->
        Bitvec.blit ~src:g ~dst:scratch;
        ignore (Bitvec.inter_into ~src:strict ~dst:scratch);
        ignore (Bitvec.union_into ~src:scratch ~dst:result.(pid)))
      gmod_i
  done;
  result

(* --- single-pass algorithm with lowlink vectors --- *)

let solve ?(label = "gmod") info (call : Callgraph.Call.t) ~imod_plus =
  Obs.Span.with_ label @@ fun () ->
  let prog = call.Callgraph.Call.prog in
  let g = call.Callgraph.Call.graph in
  let n = Digraph.n_nodes g in
  let dp = max 1 (Prog.max_level prog) in
  let gmod = Array.map Bitvec.copy imod_plus in
  let dfn = Array.make n 0 in
  (* lowlink.(v).(i), 1 <= i <= dp, is v's lowlink in problem i.  A
     single-index update records an edge's contribution at the callee's
     level; the suffix-min pass at node completion spreads it to every
     problem the edge belongs to (i <= level(callee)). *)
  let lowlink = Array.make n [||] in
  (* stacked_to.(v): v is on the problem-i stack for 1 <= i <=
     stacked_to.(v).  Pops happen from deep problems towards problem 1
     (a level-(i+1) component is a subset of the level-i one and closes
     no later). *)
  let stacked_to = Array.make n 0 in
  let stacks = Array.make (dp + 1) [] in
  let next_dfn = ref 1 in
  let scratch = Bitvec.create (Ir.Info.n_vars info) in
  (* GMOD[dst] ∪= (GMOD[src] ∖ LOCAL[src]) ∩ {vars at level < lim}. *)
  let add_escaped_masked ~src ~dst ~lim =
    Bitvec.blit ~src:gmod.(src) ~dst:scratch;
    ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info src) ~dst:scratch);
    ignore (Bitvec.inter_into ~src:(Ir.Info.level_at_most info (lim - 1)) ~dst:scratch);
    ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(dst))
  in
  let close_component root i =
    (* Level-i root: distribute the level-(< i) variables of the root's
       set to every member of the level-i component. *)
    Bitvec.blit ~src:gmod.(root) ~dst:scratch;
    ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info root) ~dst:scratch);
    ignore (Bitvec.inter_into ~src:(Ir.Info.level_at_most info (i - 1)) ~dst:scratch);
    let rec pop () =
      match stacks.(i) with
      | [] -> assert false
      | u :: rest ->
        stacks.(i) <- rest;
        assert (stacked_to.(u) = i);
        stacked_to.(u) <- i - 1;
        ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(u));
        if u <> root then pop ()
    in
    pop ()
  in
  let frame_node = Array.make (n + 1) 0 in
  let frame_next = Array.make (n + 1) 0 in
  let search root =
    if dfn.(root) = 0 then begin
      let sp = ref 0 in
      let push v =
        dfn.(v) <- !next_dfn;
        lowlink.(v) <- Array.make (dp + 1) !next_dfn;
        incr next_dfn;
        for i = 1 to dp do
          stacks.(i) <- v :: stacks.(i)
        done;
        stacked_to.(v) <- dp;
        frame_node.(!sp) <- v;
        frame_next.(!sp) <- 0;
        incr sp
      in
      push root;
      while !sp > 0 do
        let v = frame_node.(!sp - 1) in
        let i = frame_next.(!sp - 1) in
        if i < Digraph.out_degree g v then begin
          frame_next.(!sp - 1) <- i + 1;
          let q = Digraph.nth_succ g v i in
          let lq = max 1 (Prog.proc prog q).Prog.level in
          if dfn.(q) = 0 then push q
          else begin
            (* The edge exists in problems 1..lq.  Problems where q is
               still stacked and older get a lowlink contribution;
               problems where q's component has closed get the masked
               equation-(4) union.  Unioning early for the still-open
               problems is harmless — their closes redistribute. *)
            let stacked_limit = min lq stacked_to.(q) in
            if dfn.(q) < dfn.(v) && stacked_limit >= 1 then
              lowlink.(v).(stacked_limit) <-
                min lowlink.(v).(stacked_limit) dfn.(q);
            if dfn.(q) > dfn.(v) || stacked_to.(q) < lq then
              add_escaped_masked ~src:q ~dst:v ~lim:lq
          end
        end
        else begin
          decr sp;
          (* Suffix-min correction: a contribution recorded at level j
             belongs to every problem i <= j. *)
          for i = dp - 1 downto 1 do
            lowlink.(v).(i) <- min lowlink.(v).(i) lowlink.(v).(i + 1)
          done;
          for i = dp downto 1 do
            if lowlink.(v).(i) = dfn.(v) && stacked_to.(v) >= i then
              close_component v i
          done;
          if !sp > 0 then begin
            let parent = frame_node.(!sp - 1) in
            let lv = max 1 (Prog.proc prog v).Prog.level in
            (* Tree edge (parent, v): exists in problems 1..level(v). *)
            for i = 1 to min lv dp do
              lowlink.(parent).(i) <- min lowlink.(parent).(i) lowlink.(v).(i)
            done;
            add_escaped_masked ~src:v ~dst:parent ~lim:lv
          end
        end
      done
    end
  in
  search prog.Prog.main;
  for v = 0 to n - 1 do
    search v
  done;
  gmod
