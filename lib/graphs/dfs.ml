type edge_kind = Tree | Forward | Back | Cross

type t = {
  pre : int array;
  post : int array;
  parent : int array;
  kind : edge_kind array;
  order : int array;
}

let run ?roots g =
  let n = Digraph.n_nodes g in
  let m = Digraph.n_edges g in
  let pre = Array.make n (-1) in
  let post = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let kind = Array.make m Cross in
  let order = Array.make n (-1) in
  let next_pre = ref 0 in
  let next_post = ref 0 in
  (* Out-edge ids per node, materialised once for cursor-based
     iteration. *)
  let edges = Array.make n [||] in
  for v = 0 to n - 1 do
    let deg = Digraph.out_degree g v in
    let a = Array.make deg 0 in
    let i = ref 0 in
    Digraph.iter_out_edges g v (fun e _ ->
        a.(!i) <- e;
        incr i);
    edges.(v) <- a
  done;
  let frame_node = Array.make (n + 1) 0 in
  let frame_next = Array.make (n + 1) 0 in
  let visit root =
    let sp = ref 0 in
    let push v p =
      pre.(v) <- !next_pre;
      order.(!next_pre) <- v;
      incr next_pre;
      parent.(v) <- p;
      frame_node.(!sp) <- v;
      frame_next.(!sp) <- 0;
      incr sp
    in
    if pre.(root) = -1 then begin
      push root (-1);
      while !sp > 0 do
        let v = frame_node.(!sp - 1) in
        let i = frame_next.(!sp - 1) in
        if i < Array.length edges.(v) then begin
          frame_next.(!sp - 1) <- i + 1;
          let e = edges.(v).(i) in
          let w = Digraph.edge_dst g e in
          if pre.(w) = -1 then begin
            kind.(e) <- Tree;
            push w v
          end
          else if post.(w) = -1 then kind.(e) <- Back
          else if pre.(w) > pre.(v) then kind.(e) <- Forward
          else kind.(e) <- Cross
        end
        else begin
          decr sp;
          post.(v) <- !next_post;
          incr next_post
        end
      done
    end
  in
  (match roots with
  | Some rs -> List.iter visit rs
  | None ->
    for v = 0 to n - 1 do
      visit v
    done);
  { pre; post; parent; kind; order }

let is_ancestor t ~anc ~desc =
  t.pre.(anc) <= t.pre.(desc) && t.post.(anc) >= t.post.(desc)
