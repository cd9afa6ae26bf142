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
