module Prog = Ir.Prog
module Expr = Ir.Expr
module Stmt = Ir.Stmt

let atomize ~unstable (e : Expr.t) : Section.dim =
  let stable v = not (Bitvec.get unstable v) in
  match e with
  | Expr.Int c -> Section.Exact (Section.Const c)
  | Expr.Var v when stable v -> Section.Exact (Section.Affine { var = v; offset = 0 })
  | Expr.Binop (Expr.Add, Expr.Var v, Expr.Int c) when stable v ->
    Section.Exact (Section.Affine { var = v; offset = c })
  | Expr.Binop (Expr.Add, Expr.Int c, Expr.Var v) when stable v ->
    Section.Exact (Section.Affine { var = v; offset = c })
  | Expr.Binop (Expr.Sub, Expr.Var v, Expr.Int c) when stable v ->
    Section.Exact (Section.Affine { var = v; offset = -c })
  | _ -> Section.Star

(* Shared traversal: record modifications and uses as sections. *)
let element_section ~unstable idx =
  Section.Section (Array.of_list (List.map (atomize ~unstable) idx))

let scalar_section = Section.Section [||]

let rec use_expr ~unstable ~add (e : Expr.t) =
  match e with
  | Expr.Int _ | Expr.Bool _ -> ()
  | Expr.Var v -> add v scalar_section
  | Expr.Index (a, idx) ->
    add a (element_section ~unstable idx);
    List.iter (use_expr ~unstable ~add) idx
  | Expr.Binop (_, l, r) ->
    use_expr ~unstable ~add l;
    use_expr ~unstable ~add r
  | Expr.Unop (_, e) -> use_expr ~unstable ~add e
  (* Pointers never name array cells (no pointer-to-array, no
     address-of-element), so sections — an array refinement — see a
     dereference only as a scalar use of the pointer; the scalar
     cells it may name are covered by the bit-level analysis. *)
  | Expr.Addr _ | Expr.New _ -> ()
  | Expr.Deref (p, _) -> add p scalar_section

let use_lvalue_indices ~unstable ~add (lv : Expr.lvalue) =
  match lv with
  | Expr.Lvar _ -> ()
  | Expr.Lindex (_, idx) -> List.iter (use_expr ~unstable ~add) idx
  | Expr.Lderef (p, _) -> add p scalar_section

let mod_lvalue ~unstable ~add (lv : Expr.lvalue) =
  match lv with
  | Expr.Lvar v -> add v scalar_section
  | Expr.Lindex (a, idx) -> add a (element_section ~unstable idx)
  | Expr.Lderef _ -> ()

let collect_stmts prog ~unstable ~want stmts =
  let map = Secmap.create prog in
  let add vid s = ignore (Secmap.add map vid s) in
  let add_mod vid s = if want = `Mod then add vid s in
  let add_use vid s = if want = `Use then add vid s in
  let use_e = use_expr ~unstable ~add:add_use in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Assign (lv, e) ->
        mod_lvalue ~unstable ~add:add_mod lv;
        use_lvalue_indices ~unstable ~add:add_use lv;
        use_e e
      | Stmt.If (c, _, _) | Stmt.While (c, _) -> use_e c
      | Stmt.For (v, lo, hi, _) ->
        add_mod v scalar_section;
        add_use v scalar_section;
        use_e lo;
        use_e hi
      | Stmt.Read lv ->
        mod_lvalue ~unstable ~add:add_mod lv;
        use_lvalue_indices ~unstable ~add:add_use lv
      | Stmt.Write e -> use_e e
      | Stmt.Call sid ->
        (* Exclusive of the call's effects; argument evaluation is a
           local use. *)
        let site = Prog.site prog sid in
        Array.iter
          (fun arg ->
            match arg with
            | Prog.Arg_value e -> use_e e
            | Prog.Arg_ref lv -> use_lvalue_indices ~unstable ~add:add_use lv)
          site.Prog.args)
    stmts;
  map

let collect prog ~unstable ~want =
  Array.map
    (fun pr -> collect_stmts prog ~unstable:unstable.(pr.Prog.pid) ~want pr.Prog.body)
    prog.Prog.procs

let lrsd_mod prog ~unstable = collect prog ~unstable ~want:`Mod
let lrsd_use prog ~unstable = collect prog ~unstable ~want:`Use

let stmts_mod prog ~unstable stmts = collect_stmts prog ~unstable ~want:`Mod stmts
let stmts_use prog ~unstable stmts = collect_stmts prog ~unstable ~want:`Use stmts

let use_expr_into ~unstable ~add e = use_expr ~unstable ~add e
let use_lvalue_indices_into ~unstable ~add lv = use_lvalue_indices ~unstable ~add lv
