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

let solve ?(label = "gmod") ?pool info call ~imod_plus =
  Obs.Span.with_ label (fun () ->
      fst (Gmod.solve_escape ?pool ~levels:true info call ~seed:imod_plus))

(* The comparison runs outside the span, over the cone only: entries
   outside it share [cached]. *)
let solve_region ?pool info call ~seed ~seeds ~cached =
  if seeds = [] then (cached, 0, [])
  else begin
    let gmod, cone =
      Obs.Span.with_ "gmod.region" (fun () ->
          Gmod.solve_escape ~region:(seeds, cached) ?pool ~levels:true info call ~seed)
    in
    ( gmod,
      List.length cone,
      List.filter (fun v -> not (Bitvec.equal gmod.(v) cached.(v))) cone )
  end
