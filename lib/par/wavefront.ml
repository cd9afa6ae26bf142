(* Condensation-wavefront scheduling.  See wavefront.mli.

   Component ids come out of Tarjan in reverse topological order —
   every inter-component edge points from a larger id to a smaller one
   — so a single pass over components in increasing id sees each
   successor's level final: level(c) = 1 + max level over successors,
   0 at sinks.  Components sharing a level have no paths between them
   and are safe to evaluate concurrently; consecutive levels are
   separated by one Pool.run barrier. *)

type levels = {
  level : int array;
  n_levels : int;
  by_level : int array array;
  max_width : int;
}

let of_comp_succs ~n_comps ~succs_of =
  let level = Array.make n_comps 0 in
  for c = 0 to n_comps - 1 do
    List.iter
      (fun cd -> if cd <> c then level.(c) <- max level.(c) (level.(cd) + 1))
      (succs_of c)
  done;
  let n_levels = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
  let width = Array.make (max 1 n_levels) 0 in
  Array.iter (fun l -> width.(l) <- width.(l) + 1) level;
  let by_level = Array.map (fun w -> Array.make w 0) width in
  let cursor = Array.make (max 1 n_levels) 0 in
  for c = 0 to n_comps - 1 do
    let l = level.(c) in
    by_level.(l).(cursor.(l)) <- c;
    cursor.(l) <- cursor.(l) + 1
  done;
  { level; n_levels; by_level; max_width = Array.fold_left max 0 width }

type schedule = {
  n_comps : int;
  comp : int array;
  entry : int array;
  levels : levels;
}

(* Plain Tarjan (graph work only, no bit-vector operations) in the
   visit order of the paper's whole-graph findgmod: [first_root]
   first, then every remaining active node in index order, successors
   in the given array order.  Because of that, [entry.(c)] — the root
   at which component [c] closed — is precisely the first member of [c]
   that one-pass DFS enters, so a per-component re-run started there
   performs the union operations Figure 2 performs inside [c]. *)
let schedule ~n ?(active = fun _ -> true) ~first_root ~succs () =
  let dfn = Array.make n 0 in
  let low = Array.make n 0 in
  let comp = Array.make n (-1) in
  let on_stack = Array.make n false in
  let tarjan_stack = ref [] in
  let next_dfn = ref 1 in
  let n_comps = ref 0 in
  let entry_rev = ref [] in
  let frame_node = Array.make (n + 1) 0 in
  let frame_next = Array.make (n + 1) 0 in
  let close_component v =
    let c = !n_comps in
    incr n_comps;
    entry_rev := v :: !entry_rev;
    let rec pop () =
      match !tarjan_stack with
      | [] -> assert false
      | u :: rest ->
        tarjan_stack := rest;
        on_stack.(u) <- false;
        comp.(u) <- c;
        if u <> v then pop ()
    in
    pop ()
  in
  let search root =
    if dfn.(root) = 0 then begin
      let sp = ref 0 in
      let push v =
        dfn.(v) <- !next_dfn;
        low.(v) <- !next_dfn;
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
          if active q then
            if dfn.(q) = 0 then push q
            else if on_stack.(q) then low.(v) <- min low.(v) dfn.(q)
        end
        else begin
          decr sp;
          if low.(v) = dfn.(v) then close_component v;
          if !sp > 0 then begin
            let parent = frame_node.(!sp - 1) in
            low.(parent) <- min low.(parent) low.(v)
          end
        end
      done
    end
  in
  if first_root >= 0 && first_root < n && active first_root then search first_root;
  for v = 0 to n - 1 do
    if active v then search v
  done;
  let n_comps = !n_comps in
  let entry = Array.make (max 1 n_comps) 0 in
  List.iteri (fun i v -> entry.(n_comps - 1 - i) <- v) !entry_rev;
  (* Component adjacency (duplicates are harmless to the max-fold). *)
  let csuccs = Array.make (max 1 n_comps) [] in
  for v = 0 to n - 1 do
    let cs = comp.(v) in
    if cs >= 0 then
      Array.iter
        (fun q ->
          let cd = comp.(q) in
          if cd >= 0 && cd <> cs then csuccs.(cs) <- cd :: csuccs.(cs))
        succs.(v)
  done;
  let levels = of_comp_succs ~n_comps ~succs_of:(Array.get csuccs) in
  { n_comps; comp; entry; levels }

(* --- coarse plans: singleton-level fusion + cost-balanced batches --- *)

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

let plan levels ~jobs ~cost =
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
