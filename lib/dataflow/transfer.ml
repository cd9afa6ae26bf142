module P = Ir.Prog
module E = Ir.Expr
module A = Core.Analyze

type t = {
  analysis : A.t;
  must_mod_ : Bitvec.t array;
  aliased_ : Bitvec.t array;
  use_site : Bitvec.t array;
  mod_site : Bitvec.t array;
  kill_site : Bitvec.t array;
  exit_live_ : Bitvec.t array;
}

(* MUSTDEF(callee) carried through a call site into the caller's frame:
   by-ref formals land on scalar whole-variable actuals, non-locals of
   the callee pass through, everything else (callee locals, by-value
   formals, element actuals) is dropped. *)
let project_must prog must_of sid =
  let s = P.site prog sid in
  let out = Bitvec.create (P.n_vars prog) in
  Bitvec.iter
    (fun vid ->
      match (P.var prog vid).P.kind with
      | P.Formal { proc; index; mode = P.By_ref } when proc = s.P.callee -> (
        match s.P.args.(index) with
        | P.Arg_ref (E.Lvar b) ->
          if not (Ir.Types.is_array (P.var prog b).P.vty) then Bitvec.set out b
        (* A dereference actual may-defines its targets but never
           must-defines any one of them. *)
        | P.Arg_ref (E.Lindex _ | E.Lderef _) | P.Arg_value _ -> ())
      | P.Formal { proc; _ } when proc = s.P.callee -> ()
      | P.Local owner when owner = s.P.callee -> ()
      | _ -> Bitvec.set out vid)
    (must_of s.P.callee);
  out

let make (a : A.t) =
  let prog = a.A.prog in
  let info = a.A.info in
  let np = P.n_procs prog and ns = P.n_sites prog in
  (* Kill sets come from the interprocedural must-modify summaries:
     intersection over branch paths, propagated through the call
     condensation, alias-demoted and capped by GMOD (Core.Mustmod). *)
  let must_mod_ = Array.init np (fun pid -> Core.Mustmod.mustmod_of a.A.mustmod pid) in
  let aliased_ =
    Array.init np (fun pid ->
        let v = Ir.Info.fresh info in
        List.iter
          (fun (x, y) ->
            Bitvec.set v x;
            Bitvec.set v y)
          (Core.Alias.pairs a.A.alias pid);
        v)
  in
  let use_site = Array.init ns (fun sid -> A.use_of_site a sid) in
  let mod_site = Array.init ns (fun sid -> A.mod_of_site a sid) in
  let kill_site =
    Array.init ns (fun sid ->
        let k = project_must prog (fun q -> must_mod_.(q)) sid in
        ignore (Bitvec.diff_into ~src:aliased_.((P.site prog sid).P.caller) ~dst:k);
        k)
  in
  let exit_live_ =
    Array.init np (fun pid ->
        let v = Bitvec.copy (Ir.Info.non_local info pid) in
        Array.iteri
          (fun i f ->
            match P.formal_mode prog (P.proc prog pid) i with
            | P.By_ref -> Bitvec.set v f
            | P.By_value -> ())
          (P.proc prog pid).P.formals;
        v)
  in
  {
    analysis = a;
    must_mod_;
    aliased_;
    use_site;
    mod_site;
    kill_site;
    exit_live_;
  }

let analysis t = t.analysis
let must_mod t pid = t.must_mod_.(pid)
let aliased t pid = t.aliased_.(pid)
let use_of_site t sid = t.use_site.(sid)
let mod_of_site t sid = t.mod_site.(sid)
let kill_of_site t sid = t.kill_site.(sid)
let exit_live t pid = t.exit_live_.(pid)

let add_use t acc (i : Cfg.instr) =
  let set v = Bitvec.set acc v in
  let info = t.analysis.A.info in
  match i with
  | Cfg.Assign (lv, e) ->
    List.iter set (Frontend.Local.expr_reads info e);
    List.iter set (Frontend.Local.lvalue_addr_reads info lv)
  | Cfg.Read lv -> List.iter set (Frontend.Local.lvalue_addr_reads info lv)
  | Cfg.Write e | Cfg.Cond e -> List.iter set (Frontend.Local.expr_reads info e)
  | Cfg.For_init (_, lo, hi) ->
    List.iter set (E.vars lo);
    List.iter set (E.vars hi)
  | Cfg.For_test v | Cfg.For_step v -> set v
  | Cfg.Call sid -> ignore (Bitvec.union_into ~src:t.use_site.(sid) ~dst:acc)

let iter_must_def t (i : Cfg.instr) f =
  match i with
  | Cfg.Assign (E.Lvar v, _) | Cfg.Read (E.Lvar v) -> f v
  | Cfg.For_init (v, _, _) | Cfg.For_step v -> f v
  | Cfg.Call sid -> Bitvec.iter f t.kill_site.(sid)
  | Cfg.Assign ((E.Lindex _ | E.Lderef _), _)
  | Cfg.Read (E.Lindex _ | E.Lderef _)
  | Cfg.Write _ | Cfg.Cond _ | Cfg.For_test _ ->
    ()

let iter_may_def t (i : Cfg.instr) f =
  match i with
  | Cfg.Assign (lv, _) | Cfg.Read lv ->
    List.iter f (Ir.Info.lvalue_cells t.analysis.A.info lv)
  | Cfg.For_init (v, _, _) | Cfg.For_step v -> f v
  | Cfg.Call sid -> Bitvec.iter f t.mod_site.(sid)
  | Cfg.Write _ | Cfg.Cond _ | Cfg.For_test _ -> ()
