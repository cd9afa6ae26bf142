(* Iterative Tarjan.  The recursion of the textbook version is replaced
   by an explicit frame stack of (node, out-edge cursor) pairs so that
   deep call chains (one of the workload families) cannot overflow the
   OCaml stack.  The condensation's edges and levels are derived once,
   right after, so every solver over the graph shares them. *)

type levels = {
  level : int array;
  n_levels : int;
  by_level : int array array;
  max_width : int;
}

type t = {
  n_comps : int;
  comp : int array;
  members : int list array;
  entry : int array;
  succs : int array array;
  preds : int array array;
  levels : levels;
}

(* Component ids are reverse-topological, so one pass in increasing id
   sees each successor's level final. *)
let of_comp_succs succs =
  let n_comps = Array.length succs in
  let level = Array.make n_comps 0 in
  Array.iteri
    (fun c cs ->
      Array.iter
        (fun cd -> if cd <> c then level.(c) <- max level.(c) (level.(cd) + 1))
        cs)
    succs;
  let n_levels = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
  let width = Array.make (max 1 n_levels) 0 in
  Array.iter (fun l -> width.(l) <- width.(l) + 1) level;
  let by_level = Array.map (fun w -> Array.make w 0) width in
  let cursor = Array.make (max 1 n_levels) 0 in
  Array.iteri
    (fun c l ->
      by_level.(l).(cursor.(l)) <- c;
      cursor.(l) <- cursor.(l) + 1)
    level;
  { level; n_levels; by_level; max_width = Array.fold_left max 0 width }

let tarjan ?first_root g =
  let n = Digraph.n_nodes g in
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
    (* Pop the Tarjan stack down to [v]; all popped nodes form one
       component, closed in reverse topological order, entered at [v]. *)
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
        if i < Digraph.out_degree g v then begin
          frame_next.(!sp - 1) <- i + 1;
          let w = Digraph.nth_succ g v i in
          if dfn.(w) = 0 then push w
          else if on_stack.(w) then low.(v) <- min low.(v) dfn.(w)
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
  (match first_root with
  | Some r when r >= 0 && r < n -> search r
  | _ -> ());
  for v = 0 to n - 1 do
    search v
  done;
  let entry = Array.make !n_comps 0 in
  List.iteri (fun i v -> entry.(!n_comps - 1 - i) <- v) !entry_rev;
  (comp, entry)

let compute ?first_root g =
  let comp, entry = tarjan ?first_root g in
  let n_comps = Array.length entry in
  let members = Array.make n_comps [] in
  for v = Array.length comp - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  (* Inter-component edges, deduplicated with a per-source mark so the
     condensation stays O(N + E). *)
  let mark = Array.make n_comps (-1) in
  let succs =
    Array.mapi
      (fun c nodes ->
        let out = ref [] in
        List.iter
          (fun v ->
            Digraph.iter_succ g v (fun w ->
                let cw = comp.(w) in
                if cw <> c && mark.(cw) <> c then begin
                  mark.(cw) <- c;
                  out := cw :: !out
                end))
          nodes;
        Array.of_list (List.rev !out))
      members
  in
  let preds = Array.make n_comps [] in
  for c = n_comps - 1 downto 0 do
    Array.iter (fun cd -> preds.(cd) <- c :: preds.(cd)) succs.(c)
  done;
  let preds = Array.map Array.of_list preds in
  { n_comps; comp; members; entry; succs; preds; levels = of_comp_succs succs }
