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

(* The one instance: equation (4) in escape form.  Only
   [GMOD(q) ∖ LOCAL(q)] crosses a call edge, and the part of [IMOD+(q)]
   in it is [IMOD+(q) ∩ non_local(q)].  So a vector holds [result(p)],
   the part of [GMOD(p)] a fold can carry: [enter] seeds it with
   [IMOD+(p) ∩ non_local(p)], folds and closes move stripped values,
   and the end puts the base back in place, [GMOD(p) = IMOD+(p) ∪
   result(p)].  A stripped [result(q)] equals the stripped [GMOD(q)],
   so a region run folds the [cached] vectors outside its cone as they
   are.

   [~levels:false] is Figure 2 itself ([dP = 1]).  [~levels:true] is
   the multi-level form (end of §4) at [dP = max 1 max_level]: problem
   [i] keeps the edges into callees declared at level [>= i], an edge
   into a level-[l] callee carries the variables of levels [< l], and
   a level-[i] close distributes the level-[< i] variables of the
   root's value.  No strip keeps a variable of level [>= dP], so the
   seed drops those too.  At [dP = 1] the level-0 mask keeps only
   variables no procedure holds in [LOCAL] (globals and escaping
   locals), so it is the whole strip; it matters for a dereference
   that names another procedure's local.  There every value the run
   computes is level-0 already and crosses an edge as it is, as over
   a universe of the escaping variables alone: only a [cached] vector
   outside a region's cone, a whole GMOD, is stripped.  Neither form
   folds a value into itself (a self-edge, or the root at its own
   close): that changes no bit.

   Every component of the cone runs, so the cone is what comes back.
   Entries outside it share their [cached] vector.  The cone is closed
   under condensation predecessors, so a value outside it cannot have
   changed, and outside nodes reach only outside ones: the whole-graph
   DFS enters each cone component where a DFS of the cone would, and
   the region run performs exactly that run's operations. *)
let solve_escape ?region ?pool ~levels info (call : Callgraph.Call.t) ~seed =
  let prog = call.Callgraph.Call.prog in
  let scc = call.Callgraph.Call.scc in
  let dp = if levels then max 1 (Prog.max_level prog) else 1 in
  let lim q = if levels then max 1 (Prog.proc prog q).Prog.level else 1 in
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
  let level0 = levels && dp = 1 in
  (* r <- r ∖ LOCAL(v), masked to levels < lim. *)
  let strip_into r v ~lim =
    if not level0 then
      ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info v) ~dst:r);
    if levels then
      ignore (Bitvec.inter_into ~src:(Ir.Info.level_at_most info (lim - 1)) ~dst:r)
  in
  let entered = Array.make (Array.length seed) (region = None) in
  let enter v =
    let r = Bitvec.copy seed.(v) in
    strip_into r v ~lim:dp;
    gmod.(v) <- r;
    entered.(v) <- true
  in
  let ops ~slot:_ =
    let scratch = Bitvec.create (Ir.Info.n_vars info) in
    (* What crosses an edge out of [v]: a level-0 value of this run as
       it is, anything else stripped into [scratch]. *)
    let carried v ~lim =
      if level0 && entered.(v) then gmod.(v)
      else begin
        Bitvec.blit ~src:gmod.(v) ~dst:scratch;
        strip_into scratch v ~lim;
        scratch
      end
    in
    {
      fold =
        (fun ~src ~dst ~lim ->
          if src <> dst then
            ignore (Bitvec.union_into ~src:(carried src ~lim) ~dst:gmod.(dst)));
      close =
        (fun ~root ~level ->
          (* Forced on the first other member: a component of one
             distributes nothing. *)
          let value = lazy (carried root ~lim:level) in
          fun u ->
            if u <> root then ignore (Bitvec.union_into ~src:(Lazy.force value) ~dst:gmod.(u)));
    }
  in
  let cone =
    List.concat_map
      (fun c -> scc.Graphs.Scc.members.(c))
      (findgmod pool call ~seeds ~dp ~lim ~cost ~enter ops)
  in
  List.iter (fun v -> ignore (Bitvec.union_into ~src:seed.(v) ~dst:gmod.(v))) cone;
  (gmod, cone)

let solve ?(label = "gmod") ?pool info call ~imod_plus:seed =
  Obs.Span.with_ label (fun () -> fst (solve_escape ?pool ~levels:false info call ~seed))
