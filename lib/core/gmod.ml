module Digraph = Graphs.Digraph
module Prog = Ir.Prog

type ops = {
  fold : src:int -> dst:int -> lim:int -> unit;
  close : root:int -> level:int -> int -> unit;
}

(* Figure 2, scheduled as a condensation wavefront (docs/parallel.md),
   over [dp] nesting problems at once (end of §4).  The recursion of
   [search] becomes an explicit frame stack; line 8 is [enter], line 17
   is [fold], lines 19-25 are [close].

   Each component of [call.scc] (Tarjan in the paper's visit order:
   main first, then index order) is one task: a traversal of its
   members started where the whole-graph DFS first enters it
   ([entry]).  Every edge leaving the component points to a strictly
   lower level, complete before this one runs, so it folds a {e final}
   value, as the one-pass DFS folds closed components.  Problem [i]
   lives on [C_i], the edges whose callee has [lim >= i]; each [C_i] is
   a subgraph of [C], so its components nest inside the call graph's
   and the replay holds for every problem.  The entry has the smallest
   [dfn], so it closes at every level and a task ends with its stacks
   empty.

   Per node: [dfn], one lowlink per problem ([lowlink.(v * dp + i -
   1)]) and [stacked_to.(v)]: [v] is on the stacks of problems [1 ..
   stacked_to.(v)].  A back edge records its contribution at the
   deepest problem it belongs to where its target is still stacked;
   the suffix-min at completion spreads it to the shallower ones.  Pops
   run from deep problems to problem 1 (a level-[(i+1)] component lies
   inside the level-[i] one).  An edge folds when its target is a
   descendant (or the node itself) or has closed in some problem the
   edge belongs to; folding early for problems still open is harmless,
   their closes redistribute.  With [dp = 1] these are Figure 2's rules.

   Each component performs the same operations whatever the pool, so
   results and op counts do not depend on it.  Race discipline: a task
   checks [comp.(q) <> c] {e first} and never reads the state of a node
   owned by another same-level component; lower-level state is frozen
   by the batch join. *)
let findgmod pool (call : Callgraph.Call.t) ~seeds ~dp ~lim ~cost ~enter ops =
  let g = call.Callgraph.Call.graph in
  let n = Digraph.n_nodes g in
  let scc = call.Callgraph.Call.scc in
  let comp = scc.Graphs.Scc.comp in
  let jobs = Par.Pool.slots pool in
  let ops = Array.init jobs (fun slot -> ops ~slot) in
  let frame_nodes = Array.init jobs (fun _ -> Array.make (n + 1) 0) in
  let frame_nexts = Array.init jobs (fun _ -> Array.make (n + 1) 0) in
  let slot_stacks = Array.init jobs (fun _ -> Array.make (dp + 1) []) in
  let dfn = Array.make n 0 in
  let lowlink = Array.make (n * dp) 0 in
  let stacked_to = Array.make n 0 in
  let run_comp ~slot ~comp:c =
    let { fold; close } = ops.(slot) in
    let frame_node = frame_nodes.(slot) in
    let frame_next = frame_nexts.(slot) in
    let stacks = slot_stacks.(slot) in
    let close_level root i =
      let member = close ~root ~level:i in
      let rec pop () =
        match stacks.(i) with
        | [] -> assert false
        | u :: rest ->
          stacks.(i) <- rest;
          stacked_to.(u) <- i - 1;
          member u;
          if u <> root then pop ()
      in
      pop ()
    in
    (* Task-local numbering: only same-component dfn values are ever
       compared, so relative order is all that matters. *)
    let next_dfn = ref 1 in
    let sp = ref 0 in
    let push v =
      enter v;
      dfn.(v) <- !next_dfn;
      Array.fill lowlink (v * dp) dp !next_dfn;
      incr next_dfn;
      for i = 1 to dp do
        stacks.(i) <- v :: stacks.(i)
      done;
      stacked_to.(v) <- dp;
      frame_node.(!sp) <- v;
      frame_next.(!sp) <- 0;
      incr sp
    in
    push scc.Graphs.Scc.entry.(c);
    while !sp > 0 do
      let v = frame_node.(!sp - 1) in
      let i = frame_next.(!sp - 1) in
      if i < Digraph.out_degree g v then begin
        frame_next.(!sp - 1) <- i + 1;
        let q = Digraph.nth_succ g v i in
        if comp.(q) <> c then
          (* Strictly lower level (or clean): final, fold it in. *)
          fold ~src:q ~dst:v ~lim:(lim q)
        else if dfn.(q) = 0 then push q
        else begin
          let lq = lim q in
          let stacked = min lq stacked_to.(q) in
          if dfn.(q) < dfn.(v) && stacked >= 1 then begin
            let k = (v * dp) + stacked - 1 in
            lowlink.(k) <- min lowlink.(k) dfn.(q)
          end;
          if dfn.(q) >= dfn.(v) || stacked_to.(q) < lq then
            fold ~src:q ~dst:v ~lim:lq
        end
      end
      else begin
        decr sp;
        let base = v * dp in
        for i = dp - 2 downto 0 do
          lowlink.(base + i) <- min lowlink.(base + i) lowlink.(base + i + 1)
        done;
        for i = dp downto 1 do
          if lowlink.(base + i - 1) = dfn.(v) then
            close_level v i
        done;
        if !sp > 0 then begin
          let parent = frame_node.(!sp - 1) in
          let lv = lim v in
          (* Tree edge (parent, v): exists in problems 1..lv. *)
          for i = 0 to lv - 1 do
            let k = (parent * dp) + i in
            lowlink.(k) <- min lowlink.(k) lowlink.(base + i)
          done;
          fold ~src:v ~dst:parent ~lim:lv
        end
      end
    done;
    true
  in
  Par.Wavefront.resolve pool scc ~seeds ~cost ~f:run_comp

(* Every component of the cone runs, so the cone is what comes back.
   Entries start from a copy of their seed when the traversal enters
   them (line 8 of Figure 2); entries outside the cone share their
   [cached] vector, which an edge into them folds in.  The cone is
   closed under condensation predecessors, so a value outside it cannot
   have changed, and outside nodes reach only outside ones: the
   whole-graph DFS enters each cone component where a DFS of the cone
   would, and the region run performs exactly that run's operations. *)
let solve_vectors pool (call : Callgraph.Call.t) ~seed ~region ~dp ~lim ops =
  let scc = call.Callgraph.Call.scc in
  let gmod, seeds =
    match region with
    | None -> (Array.copy seed, Par.Wavefront.All)
    | Some (procs, cached) ->
      ( Array.copy cached,
        Par.Wavefront.Comps (List.map (fun v -> scc.Graphs.Scc.comp.(v)) procs) )
  in
  (* Batch cost: member count plus live seed words — an uncounted O(1)
     probe per node that weighs components by estimated summary size. *)
  let cost c =
    List.fold_left
      (fun acc v -> acc + 1 + (Bitvec.live_estimate seed.(v) / Sys.int_size))
      0 scc.Graphs.Scc.members.(c)
  in
  let cone =
    findgmod pool call ~seeds ~dp ~lim ~cost
      ~enter:(fun v -> gmod.(v) <- Bitvec.copy seed.(v))
      (ops gmod)
  in
  (gmod, List.concat_map (fun c -> scc.Graphs.Scc.members.(c)) cone)

(* Equation (4) over bit vectors, one problem.  [`Nonlocal] performs
   its [∖ LOCAL(src)] strip explicitly (blit + intersect + union, for
   vectors over the full variable universe); [`None] skips it, because
   the compact escape universe holds no procedure-locals (renumber.ml),
   so the fold is a single union.  Per-slot scratch stays hot across
   every level. *)
let solve_seeded ?region ?pool ?(prune = `Nonlocal) info call ~seed =
  let scratch_len = Bitvec.length seed.(0) in
  solve_vectors pool call ~seed ~region ~dp:1 ~lim:(fun _ -> 1)
  @@ fun gmod ~slot:_ ->
  let scratch = Bitvec.create scratch_len in
  let strip v =
    Bitvec.blit ~src:gmod.(v) ~dst:scratch;
    match prune with
    | `Nonlocal -> ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info v) ~dst:scratch)
    | `None -> ()
  in
  {
    (* GMOD[dst] ∪= GMOD[src] ∖ LOCAL[src]  (equation (4), one edge). *)
    fold =
      (fun ~src ~dst ~lim:_ ->
        match prune with
        | `Nonlocal ->
          strip src;
          ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(dst))
        | `None -> ignore (Bitvec.union_into ~src:gmod.(src) ~dst:gmod.(dst)));
    close =
      (fun ~root ~level:_ ->
        strip root;
        fun u -> ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(u)));
  }

(* Flat programs take the compact escape-universe path: renumber the
   seeded globals (renumber.ml), run the same traversal over compact
   vectors with the local-strip implicit, and expand the results onto
   the IMOD+ bases.  Nested programs (any procedure visible inside
   another's scope) keep the explicit [`Nonlocal] strip over the full
   universe. *)
let solve ?(label = "gmod") ?pool info (call : Callgraph.Call.t) ~imod_plus:seed =
  Obs.Span.with_ label @@ fun () ->
  if Prog.max_level call.Callgraph.Call.prog <= 1 then begin
    let rn = Renumber.build info ~seed in
    let compact, _ =
      solve_seeded ?pool ~prune:`None info call ~seed:(Renumber.compact_seeds rn)
    in
    Renumber.expand rn ~base:seed ~compact
  end
  else fst (solve_seeded ?pool info call ~seed)

let solve_region ?pool info call ~seed ~seeds ~cached =
  Obs.Span.with_ "gmod.region" (fun () ->
      solve_seeded ~region:(seeds, cached) ?pool info call ~seed)
