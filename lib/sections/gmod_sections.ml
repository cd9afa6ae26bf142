module Digraph = Graphs.Digraph

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

(* The shared findgmod with one problem and a Secmap fold.  It runs
   inline (no pool), so the joins stay one counter.  A close widens the
   root's entries into every other member. *)
let solve info (call : Callgraph.Call.t) ~immutable ~seed =
  let gmod = Array.copy seed in
  let joins = ref 0 in
  let add_escaped = add_escaped info ~immutable ~joins gmod in
  ignore
  @@ Core.Gmod.findgmod None call ~seeds:Par.Wavefront.All ~dp:1
       ~lim:(fun _ -> 1)
       ~cost:(fun _ -> 1)
       ~enter:(fun v -> gmod.(v) <- Secmap.copy seed.(v))
       (fun ~slot:_ ->
      {
        Core.Gmod.fold = (fun ~src ~dst ~lim:_ -> ignore (add_escaped ~src ~dst));
        close =
          (fun ~root ~level:_ u ->
            if u <> root then ignore (add_escaped ~src:root ~dst:u));
      });
  Section.count_joins !joins;
  gmod
