module Prog = Ir.Prog
module Stmt = Ir.Stmt
module Expr = Ir.Expr

module Int_set = Set.Make (Int)

(* Variables whose value a (side-effect free) expression reads.  [&x]
   reads nothing — only the address is taken; [*p] reads [p] and every
   cell the dereference chain may name, which the points-to
   projection ({!Ir.Info.deref}) supplies per depth. *)
let rec read_vars info acc (e : Expr.t) =
  match e with
  | Expr.Int _ | Expr.Bool _ | Expr.New _ | Expr.Addr _ -> acc
  | Expr.Var v -> Int_set.add v acc
  | Expr.Index (a, idx) -> List.fold_left (read_vars info) (Int_set.add a acc) idx
  | Expr.Binop (_, l, r) -> read_vars info (read_vars info acc l) r
  | Expr.Unop (_, e0) -> read_vars info acc e0
  | Expr.Deref (p, d) ->
    let acc = ref (Int_set.add p acc) in
    for k = 1 to d do
      List.iter (fun v -> acc := Int_set.add v !acc) (Ir.Info.deref info p k)
    done;
    !acc

(* Variables read to compute an lvalue's address: subscripts for an
   element, the pointer and every intermediate cell for a dereference
   (the final cell is the location itself, not part of the address
   computation). *)
let lvalue_addr_vars info acc (lv : Expr.lvalue) =
  match lv with
  | Expr.Lvar _ -> acc
  | Expr.Lindex (_, idx) -> List.fold_left (read_vars info) acc idx
  | Expr.Lderef (p, d) ->
    let acc = ref (Int_set.add p acc) in
    for k = 1 to d - 1 do
      List.iter (fun v -> acc := Int_set.add v !acc) (Ir.Info.deref info p k)
    done;
    !acc

let expr_reads info e = Int_set.elements (read_vars info Int_set.empty e)
let lvalue_addr_reads info lv = Int_set.elements (lvalue_addr_vars info Int_set.empty lv)

let lmod_stmt info (s : Stmt.t) =
  match s with
  | Stmt.Assign (lv, _) | Stmt.Read lv -> Ir.Info.lvalue_cells info lv
  | Stmt.For (v, _, _, _) -> [ v ]
  | Stmt.If _ | Stmt.While _ | Stmt.Call _ | Stmt.Write _ -> []

let luse_stmt info (s : Stmt.t) =
  let set =
    match s with
    | Stmt.Assign (lv, e) -> read_vars info (lvalue_addr_vars info Int_set.empty lv) e
    | Stmt.If (c, _, _) | Stmt.While (c, _) -> read_vars info Int_set.empty c
    | Stmt.For (v, lo, hi, _) ->
      read_vars info (read_vars info (Int_set.singleton v) lo) hi
    | Stmt.Read lv -> lvalue_addr_vars info Int_set.empty lv
    | Stmt.Write e -> read_vars info Int_set.empty e
    | Stmt.Call sid ->
      let site = Prog.site (Ir.Info.prog info) sid in
      Array.fold_left
        (fun acc arg ->
          match arg with
          | Prog.Arg_value e -> read_vars info acc e
          | Prog.Arg_ref lv -> lvalue_addr_vars info acc lv)
        Int_set.empty site.Prog.args
  in
  Int_set.elements set

let flat_of_proc info per_stmt pid =
  let acc = Ir.Info.fresh info in
  Stmt.iter
    (fun s -> List.iter (fun v -> Bitvec.set acc v) (per_stmt info s))
    (Prog.proc (Ir.Info.prog info) pid).Prog.body;
  acc

(* Procedures are independent, so they fill in chunks over the pool
   (inline without one); only single-bit sets are involved (nothing
   counted), and the batch join publishes every vector before the
   caller reads them. *)
let flat_union ?pool info per_stmt =
  let n = Prog.n_procs (Ir.Info.prog info) in
  let result = Array.make n (Bitvec.create 0) in
  Par.Pool.chunked pool n (fun ~slot:_ ~lo ~hi ->
      for pid = lo to hi - 1 do
        result.(pid) <- flat_of_proc info per_stmt pid
      done);
  result

let imod_flat ?pool info = flat_union ?pool info lmod_stmt
let iuse_flat ?pool info = flat_union ?pool info luse_stmt

(* The nesting fold is a short bottom-up pass over the declaration
   tree; it stays sequential (its unions are ordered along tree
   paths). *)
let imod ?pool info = fst (Ir.Info.fold_up_nesting info (imod_flat ?pool info))
let iuse ?pool info = fst (Ir.Info.fold_up_nesting info (iuse_flat ?pool info))
