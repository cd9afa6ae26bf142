(* Condensation-wavefront execution.  See wavefront.mli.

   Levels come with the graph's own condensation ({!Graphs.Scc}):
   components sharing a level have no paths between them and are safe
   to evaluate concurrently; consecutive levels are separated by one
   Pool.run barrier.  A plan coarsens that: singleton-level fusion
   plus cost-balanced batches. *)

(* Scheduler-shape observability: how many singleton levels were fused
   away, and how often a pooled solve found the condensation to be an
   effective chain and downgraded to fully-inline execution (paying no
   barrier and — with lazy spawn — no domain startup at all). *)
let fused_levels_metric = Obs.Metric.counter "par.fused_levels"
let chain_downgrades_metric = Obs.Metric.counter "par.chain_downgrades"

type batch = { comps : int array; cost : int }
type stage = Seq of int array | Par of batch array

type plan = {
  stages : stage array;
  n_levels : int;
  fused_levels : int;
  n_batches : int;
  mean_batch_cost : float;
  chain : bool;
  max_width : int;
}

(* Deterministic LPT: heaviest component first (ties by ascending id,
   via stable sort over an id-ordered base), each into the currently
   lightest batch (ties by lowest batch index).  Batch count is capped
   at [2 * jobs]: enough slack to absorb cost-estimate error, coarse
   enough that per-batch scheduling overhead stays negligible. *)
let balance comps ~jobs ~cost =
  let width = Array.length comps in
  let n_batches = max 1 (min width (2 * jobs)) in
  let order = Array.init width (fun i -> i) in
  let costs = Array.map (fun c -> max 1 (cost c)) comps in
  Array.stable_sort (fun a b -> compare costs.(b) costs.(a)) order;
  let totals = Array.make n_batches 0 in
  let members = Array.make n_batches [] in
  Array.iter
    (fun i ->
      let best = ref 0 in
      for b = 1 to n_batches - 1 do
        if totals.(b) < totals.(!best) then best := b
      done;
      totals.(!best) <- totals.(!best) + costs.(i);
      members.(!best) <- i :: members.(!best))
    order;
  let batches =
    Array.init n_batches (fun b ->
        {
          comps = Array.of_list (List.rev_map (fun i -> comps.(i)) members.(b));
          cost = totals.(b);
        })
  in
  Array.of_list
    (List.filter (fun b -> Array.length b.comps > 0) (Array.to_list batches))

let plan (levels : Graphs.Scc.levels) ~jobs ~cost =
  let stages = ref [] in
  let pending = ref [] in
  let fused = ref 0 in
  let n_batches = ref 0 in
  let total_cost = ref 0 in
  let flush () =
    match !pending with
    | [] -> ()
    | singles ->
      stages := Seq (Array.of_list (List.rev singles)) :: !stages;
      pending := []
  in
  Array.iter
    (fun comps ->
      if Array.length comps = 1 then begin
        pending := comps.(0) :: !pending;
        incr fused
      end
      else begin
        flush ();
        let batches = balance comps ~jobs ~cost in
        n_batches := !n_batches + Array.length batches;
        Array.iter (fun b -> total_cost := !total_cost + b.cost) batches;
        stages := Par batches :: !stages
      end)
    levels.by_level;
  flush ();
  let stages = Array.of_list (List.rev !stages) in
  {
    stages;
    n_levels = levels.n_levels;
    fused_levels = !fused;
    n_batches = !n_batches;
    mean_batch_cost =
      (if !n_batches = 0 then 0.
       else float_of_int !total_cost /. float_of_int !n_batches);
    chain = Array.for_all (function Seq _ -> true | Par _ -> false) stages;
    max_width = levels.max_width;
  }

let run_plan pool plan ~f =
  let seq comps = Array.iter (fun c -> f ~slot:0 ~comp:c) comps in
  match pool with
  | None ->
    Array.iter
      (function
        | Seq comps -> seq comps
        | Par batches -> Array.iter (fun b -> seq b.comps) batches)
      plan.stages
  | Some pool ->
    Obs.Metric.add fused_levels_metric plan.fused_levels;
    if plan.chain then Obs.Metric.add chain_downgrades_metric 1;
    Array.iter
      (function
        | Seq comps ->
          (* Fused singleton run: inline on the caller, no barrier. *)
          seq comps
        | Par batches ->
          Pool.run pool
            (Array.map
               (fun b slot ->
                 Array.iter (fun c -> f ~slot ~comp:c) b.comps)
               batches))
      plan.stages

type seeds = All | Comps of int list

(* The seeds' condensation-ancestor cone, walked along [preds] with an
   explicit stack ([ref_chain] condensations run 16k components deep)
   and grouped by level, ascending component id within a level.
   [mark]: 2 for a seed, 1 for an ancestor. *)
let cone (scc : Graphs.Scc.t) seeds mark =
  let stack = ref [] and cone = ref [] in
  let visit c =
    if mark.(c) = 0 then begin
      mark.(c) <- 1;
      cone := c :: !cone;
      stack := c :: !stack
    end
  in
  List.iter (fun c -> visit c; mark.(c) <- 2) seeds;
  while !stack <> [] do
    let c = List.hd !stack in
    stack := List.tl !stack;
    Array.iter visit scc.Graphs.Scc.preds.(c)
  done;
  let level = scc.Graphs.Scc.levels.Graphs.Scc.level in
  let by_level_then_id a b = if level.(a) <> level.(b) then level.(a) - level.(b) else a - b in
  let groups =
    List.fold_left
      (fun acc c ->
        match acc with
        | (c' :: _ as g) :: rest when level.(c') = level.(c) -> (c :: g) :: rest
        | _ -> [ c ] :: acc)
      [] (List.sort by_level_then_id !cone)
  in
  let by_level = Array.of_list (List.rev_map (fun g -> Array.of_list (List.rev g)) groups) in
  {
    Graphs.Scc.level;
    n_levels = Array.length by_level;
    by_level;
    max_width = Array.fold_left (fun m cs -> max m (Array.length cs)) 0 by_level;
  }

let resolve pool (scc : Graphs.Scc.t) ~seeds ~cost ~f =
  let moved = Array.make scc.Graphs.Scc.n_comps false in
  let levels, run =
    match seeds with
    | All -> (scc.Graphs.Scc.levels, fun ~slot ~comp -> moved.(comp) <- f ~slot ~comp)
    | Comps seeds ->
      let mark = Array.make scc.Graphs.Scc.n_comps 0 in
      ( cone scc seeds mark,
        fun ~slot ~comp ->
          if mark.(comp) = 2 || Array.exists (Array.get moved) scc.Graphs.Scc.succs.(comp)
          then moved.(comp) <- f ~slot ~comp )
  in
  run_plan pool (plan levels ~jobs:(Pool.slots pool) ~cost) ~f:run;
  Array.fold_right
    (fun cs acc -> Array.fold_right (fun c acc -> if moved.(c) then c :: acc else acc) cs acc)
    levels.Graphs.Scc.by_level []
