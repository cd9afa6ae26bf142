module Digraph = Graphs.Digraph
module Prog = Ir.Prog

(* Figure 2, scheduled as a condensation wavefront (docs/parallel.md).
   The recursion of [search] becomes an explicit frame stack;
   everything else follows the paper line by line: line 8 is the
   [gmod.(v) <- copy seed.(v)] on push, line 17 is [add_escaped],
   lines 19-25 are [close_component].

   The call graph comes condensed and levelled ([call.scc], Tarjan in
   the paper's whole-graph visit order: main first, then index order).
   Each component becomes one task: a Figure-2 traversal restricted to
   the component's members, started at the node where the whole-graph
   DFS first enters it ([entry]).  Every edge leaving the component
   points to a strictly lower level — complete before this component
   runs — so it takes the forward/cross-edge branch of line 17 and
   folds in a {e final} value, exactly as the one-pass DFS folds
   closed components.  Without a pool the plan runs inline on the
   caller; with one, wide levels run as batches.  Either way each
   component performs the same operations on its own vectors, so
   results and [bitvec.vector_ops]/[word_ops] totals do not depend on
   [?pool].

   [~prune] selects how equation (4)'s [∖ LOCAL(src)] strip happens:
   [`Nonlocal] performs it explicitly (blit + intersect with
   NON-LOCAL + union — the general form, needed whenever vectors span
   the full variable universe), while [`None] skips it because the
   caller solves over a compact escape universe that contains no
   procedure-locals at all (see renumber.ml), collapsing the fold to a
   single union.

   With [?region:(dirty, cached)] only the components in [dirty] run,
   level by level: every other node keeps its [cached] vector (shared,
   not copied), and an edge into it folds the cached value in.  The
   dirty set is closed under condensation predecessors, so a clean
   node's equation-(4) value cannot have changed, and the region run
   computes the same fixpoint Figure 2 computes from scratch.  Clean
   nodes reach only clean nodes, so the whole-graph DFS enters each
   dirty component where a DFS of the dirty subgraph alone would: the
   region run performs exactly that run's operations.

   Components are scheduled through a coarse [Par.Wavefront.plan]:
   consecutive singleton levels fuse into inline sequential stages
   (no barrier), wide levels split into at most [2 * jobs] batches
   balanced by live seed size ([Bitvec.live_estimate]) plus member
   count — summary-size-weighted, not node-count-weighted.  Per-slot
   scratch vectors are allocated once per solve and stay hot across
   every level.

   Race discipline: a task checks [comp.(q) <> c] {e first} and never
   reads [dfn]/[lowlink]/[on_stack]/[gmod] of a node owned by another
   same-level component; lower-level state is frozen by the batch
   join.  Seed copies happen at first visit (push) — one copy per
   dirty node. *)
let solve_seeded ?region ?pool ?(prune = `Nonlocal) info (call : Callgraph.Call.t)
    ~seed =
  let g = call.Callgraph.Call.graph in
  let n = Digraph.n_nodes g in
  let scc = call.Callgraph.Call.scc in
  let comp = scc.Graphs.Scc.comp in
  (* Dirty entries are placeholders (never read before the first-visit
     copy overwrites them); clean entries share their cached vector. *)
  let gmod, levels =
    match region with
    | None -> (Array.copy seed, scc.Graphs.Scc.levels)
    | Some (dirty, cached) ->
      ( Array.init n (fun v -> if dirty.(comp.(v)) then seed.(v) else cached.(v)),
        Graphs.Scc.restrict_levels scc.Graphs.Scc.levels ~keep:(Array.get dirty) )
  in
  let jobs = Par.Pool.slots pool in
  let scratch_len = Bitvec.length seed.(0) in
  let scratches = Array.init jobs (fun _ -> Bitvec.create scratch_len) in
  let frame_nodes = Array.init jobs (fun _ -> Array.make (n + 1) 0) in
  let frame_nexts = Array.init jobs (fun _ -> Array.make (n + 1) 0) in
  let dfn = Array.make n 0 in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let run_comp ~slot ~comp:c =
    let scratch = scratches.(slot) in
    let frame_node = frame_nodes.(slot) in
    let frame_next = frame_nexts.(slot) in
    (* GMOD[dst] ∪= GMOD[src] ∖ LOCAL[src]  (equation (4), one edge). *)
    let add_escaped ~src ~dst =
      match prune with
      | `Nonlocal ->
        Bitvec.blit ~src:gmod.(src) ~dst:scratch;
        ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info src) ~dst:scratch);
        ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(dst))
      | `None -> ignore (Bitvec.union_into ~src:gmod.(src) ~dst:gmod.(dst))
    in
    let tarjan_stack = ref [] in
    let close_component root =
      Bitvec.blit ~src:gmod.(root) ~dst:scratch;
      (match prune with
      | `Nonlocal ->
        ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info root) ~dst:scratch)
      | `None -> ());
      let rec pop () =
        match !tarjan_stack with
        | [] -> assert false
        | u :: rest ->
          tarjan_stack := rest;
          on_stack.(u) <- false;
          ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(u));
          if u <> root then pop ()
      in
      pop ()
    in
    (* Task-local numbering: only same-component dfn values are ever
       compared, so relative order is all that matters. *)
    let next_dfn = ref 1 in
    let sp = ref 0 in
    let push v =
      gmod.(v) <- Bitvec.copy seed.(v);
      dfn.(v) <- !next_dfn;
      lowlink.(v) <- !next_dfn;
      incr next_dfn;
      tarjan_stack := v :: !tarjan_stack;
      on_stack.(v) <- true;
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
          add_escaped ~src:q ~dst:v
        else if dfn.(q) = 0 then push q
        else if on_stack.(q) && dfn.(q) < dfn.(v) then
          lowlink.(v) <- min dfn.(q) lowlink.(v)
        else add_escaped ~src:q ~dst:v
      end
      else begin
        decr sp;
        if lowlink.(v) = dfn.(v) then close_component v;
        if !sp > 0 then begin
          let parent = frame_node.(!sp - 1) in
          lowlink.(parent) <- min lowlink.(parent) lowlink.(v);
          add_escaped ~src:v ~dst:parent
        end
      end
    done
  in
  (* Batch cost: member count plus live seed words — an uncounted O(1)
     probe per node that weighs components by estimated summary size. *)
  let cost_of c =
    List.fold_left
      (fun acc v -> acc + 1 + (Bitvec.live_estimate seed.(v) / Sys.int_size))
      0 scc.Graphs.Scc.members.(c)
  in
  let plan = Par.Wavefront.plan levels ~jobs ~cost:cost_of in
  Par.Wavefront.run_plan pool plan ~f:run_comp;
  gmod

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
    let compact =
      solve_seeded ?pool ~prune:`None info call ~seed:(Renumber.compact_seeds rn)
    in
    Renumber.expand rn ~base:seed ~compact
  end
  else solve_seeded ?pool info call ~seed

let solve_region ?(label = "gmod.region") ?pool info call ~seed ~dirty ~cached =
  Obs.Span.with_ label (fun () ->
      solve_seeded ~region:(dirty, cached) ?pool info call ~seed)
