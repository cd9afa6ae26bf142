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

(* --- single-pass algorithm: the shared findgmod over dP problems --- *)

(* Problem i keeps the edges whose callee is declared at level >= i, so
   an edge into a level-l callee carries the variables declared at
   levels < l, and a level-i close distributes the level-(< i)
   variables of the root's set.  A self-edge adds nothing: the node's
   set already holds its own contribution. *)
let solve_seeded ?region ?pool info (call : Callgraph.Call.t) ~seed =
  let prog = call.Callgraph.Call.prog in
  let dp = max 1 (Prog.max_level prog) in
  let lim q = max 1 (Prog.proc prog q).Prog.level in
  Gmod.solve_vectors pool call ~seed ~region ~dp ~lim @@ fun gmod ~slot:_ ->
  let scratch = Bitvec.create (Ir.Info.n_vars info) in
  (* scratch <- (GMOD[v] ∖ LOCAL[v]) ∩ {vars at level < lim}. *)
  let strip v ~lim =
    Bitvec.blit ~src:gmod.(v) ~dst:scratch;
    ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info v) ~dst:scratch);
    ignore (Bitvec.inter_into ~src:(Ir.Info.level_at_most info (lim - 1)) ~dst:scratch)
  in
  {
    Gmod.fold =
      (fun ~src ~dst ~lim ->
        if src <> dst then begin
          strip src ~lim;
          ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(dst))
        end);
    close =
      (fun ~root ~level ->
        strip root ~lim:level;
        fun u -> ignore (Bitvec.union_into ~src:scratch ~dst:gmod.(u)));
  }

(* A program nesting at most one level deep takes Figure 2's instance. *)
let flat (call : Callgraph.Call.t) = Prog.max_level call.Callgraph.Call.prog <= 1

let solve ?(label = "gmod") ?pool info call ~imod_plus =
  if flat call then Gmod.solve ~label ?pool info call ~imod_plus
  else Obs.Span.with_ label (fun () -> fst (solve_seeded ?pool info call ~seed:imod_plus))

(* The comparison runs outside the span, over the cone only: entries
   outside it share [cached].  Figure 2's [∖ LOCAL] strip leaves only
   globals when every variable a seed holds is visible in its
   procedure; a dereference can name another procedure's local, which
   only the level masks strip (as the batch solve's compact universe
   leaves it out), so a flat program with pointers takes the
   multi-level form. *)
let solve_region ?pool info call ~seed ~seeds ~cached =
  if seeds = [] then (cached, 0, [])
  else begin
    let gmod, cone =
      if flat call && not (Ir.Info.has_pointers info) then
        Gmod.solve_region ?pool info call ~seed ~seeds ~cached
      else
        Obs.Span.with_ "gmod.region" (fun () ->
            solve_seeded ~region:(seeds, cached) ?pool info call ~seed)
    in
    ( gmod,
      List.length cone,
      List.filter (fun v -> not (Bitvec.equal gmod.(v) cached.(v))) cone )
  end
