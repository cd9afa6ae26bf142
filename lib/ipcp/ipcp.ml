module Cval = Cval
module Prog = Ir.Prog
module Expr = Ir.Expr
module Digraph = Graphs.Digraph
module Scc = Graphs.Scc

(* One call-site contribution to a formal's entry value. *)
type jump =
  | Lit of int
  | Pass of int * int  (* source formal vid, constant offset *)
  | Unknown

type result = {
  value : Cval.t array;
  foldable : Bitvec.t;
  meets : int;
}

(* Full constant folding of a variable-free expression. *)
let rec const_fold (e : Expr.t) : int option =
  match e with
  | Expr.Int n -> Some n
  | Expr.Bool b -> Some (if b then 1 else 0)
  | Expr.Var _ | Expr.Index _ | Expr.Addr _ | Expr.Deref _ | Expr.New _ -> None
  | Expr.Unop (Expr.Neg, e) -> Option.map (fun n -> -n) (const_fold e)
  | Expr.Unop (Expr.Not, e) ->
    Option.map (fun n -> if n = 0 then 1 else 0) (const_fold e)
  | Expr.Binop (op, l, r) -> (
    match (const_fold l, const_fold r) with
    | Some a, Some b -> (
      let bool_ b = Some (if b then 1 else 0) in
      match op with
      | Expr.Add -> Some (a + b)
      | Expr.Sub -> Some (a - b)
      | Expr.Mul -> Some (a * b)
      | Expr.Div -> if b = 0 then None else Some (a / b)
      | Expr.Mod -> if b = 0 then None else Some (a mod b)
      | Expr.Lt -> bool_ (a < b)
      | Expr.Le -> bool_ (a <= b)
      | Expr.Gt -> bool_ (a > b)
      | Expr.Ge -> bool_ (a >= b)
      | Expr.Eq -> bool_ (a = b)
      | Expr.Ne -> bool_ (a <> b)
      | Expr.And -> bool_ (a <> 0 && b <> 0)
      | Expr.Or -> bool_ (a <> 0 || b <> 0))
    | _ -> None)

let analyze info ~imod_plus =
  let prog = Ir.Info.prog info in
  let nv = Prog.n_vars prog in
  (* Variables modified nowhere in the program. *)
  let ever_modified = Bitvec.create nv in
  Array.iter (fun m -> ignore (Bitvec.union_into ~src:m ~dst:ever_modified)) imod_plus;
  (* A variable whose value cannot change during its owner's (or, for
     an unmodified global, anyone's) execution — usable as a
     pass-through jump-function source.  A by-reference formal is never
     one: its cell aliases caller data, so it can change through a
     different name without showing in the owner's IMOD+. *)
  let stable_source v =
    let var = Prog.var prog v in
    match var.Prog.kind with
    | Prog.Formal { proc = owner; mode = Prog.By_value; _ } ->
      not (Bitvec.get imod_plus.(owner) v)
    | Prog.Formal { mode = Prog.By_ref; _ } -> false
    | Prog.Global -> not (Bitvec.get ever_modified v)
    | Prog.Local _ -> false
  in
  let var_jump v =
    let var = Prog.var prog v in
    if Ir.Types.is_array var.Prog.vty || Ir.Types.is_ptr var.Prog.vty then Unknown
    else
    match var.Prog.kind with
    | Prog.Formal _ when stable_source v -> Pass (v, 0)
    | Prog.Global when stable_source v -> Lit 0 (* initial value, never written *)
    | Prog.Formal _ | Prog.Global | Prog.Local _ -> Unknown
  in
  let jump_of_expr (e : Expr.t) =
    match const_fold e with
    | Some n -> Lit n
    | None -> (
      match e with
      | Expr.Var v -> var_jump v
      | Expr.Binop (Expr.Add, Expr.Var v, Expr.Int c)
      | Expr.Binop (Expr.Add, Expr.Int c, Expr.Var v) -> (
        match var_jump v with
        | Pass (src, o) -> Pass (src, o + c)
        | Lit a -> Lit (a + c)
        | Unknown -> Unknown)
      | Expr.Binop (Expr.Sub, Expr.Var v, Expr.Int c) -> (
        match var_jump v with
        | Pass (src, o) -> Pass (src, o - c)
        | Lit a -> Lit (a - c)
        | Unknown -> Unknown)
      | _ -> Unknown)
  in
  (* Gather contributions per formal. *)
  let contributions = Array.make nv [] in
  Prog.iter_sites prog (fun s ->
      let callee = Prog.proc prog s.Prog.callee in
      Array.iteri
        (fun i arg ->
          let f = callee.Prog.formals.(i) in
          let j =
            match arg with
            | Prog.Arg_value e -> jump_of_expr e
            | Prog.Arg_ref (Expr.Lvar v) -> jump_of_expr (Expr.Var v)
            | Prog.Arg_ref (Expr.Lindex _ | Expr.Lderef _) -> Unknown
          in
          contributions.(f) <- j :: contributions.(f))
        s.Prog.args);
  (* Dependency graph over formals; solved Figure-1 style: SCCs,
     then one pass over the condensation in forward topological order
     (sources first = decreasing Tarjan component number), iterating
     inside each component until the (height-2) lattice stabilises. *)
  let formals = ref [] in
  let node_of = Array.make nv (-1) in
  let n_nodes = ref 0 in
  Prog.iter_vars prog (fun v ->
      match v.Prog.kind with
      | Prog.Formal _ ->
        node_of.(v.Prog.vid) <- !n_nodes;
        incr n_nodes;
        formals := v.Prog.vid :: !formals
      | Prog.Global | Prog.Local _ -> ());
  let var_of = Array.of_list (List.rev !formals) in
  let b = Digraph.Builder.create ~nodes:!n_nodes () in
  Array.iteri
    (fun f js ->
      List.iter
        (fun j ->
          match j with
          | Pass (src, _) when node_of.(src) >= 0 && node_of.(f) >= 0 ->
            ignore (Digraph.Builder.add_edge b ~src:node_of.(src) ~dst:node_of.(f))
          | Pass _ | Lit _ | Unknown -> ())
        js)
    contributions;
  let g = Digraph.Builder.freeze b in
  let scc = Scc.compute g in
  let members = scc.Scc.members in
  let value = Array.make nv Cval.Top in
  Array.iter (fun f -> value.(f) <- Cval.Bottom) var_of;
  let meets = ref 0 in
  let eval_formal f =
    List.fold_left
      (fun acc j ->
        incr meets;
        let v =
          match j with
          | Lit c -> Cval.Const c
          | Unknown -> Cval.Top
          | Pass (src, off) -> Cval.shift off value.(src)
        in
        Cval.meet acc v)
      Cval.Bottom contributions.(f)
  in
  for c = scc.Scc.n_comps - 1 downto 0 do
    let ms = members.(c) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun node ->
          let f = var_of.(node) in
          let v = eval_formal f in
          if not (Cval.equal v value.(f)) then begin
            value.(f) <- v;
            changed := true
          end)
        ms
    done
  done;
  (* Non-formals report Top (no claim). *)
  let foldable = Bitvec.create nv in
  Array.iter
    (fun f ->
      match value.(f) with
      | Cval.Const _ ->
        let owner =
          match (Prog.var prog f).Prog.kind with
          | Prog.Formal { proc; _ } -> proc
          | Prog.Global | Prog.Local _ -> assert false
        in
        if not (Bitvec.get imod_plus.(owner) f) then Bitvec.set foldable f
      | Cval.Bottom | Cval.Top -> ())
    var_of;
  { value; foldable; meets = !meets }

let constant r vid =
  match r.value.(vid) with
  | Cval.Const c -> Some c
  | Cval.Bottom | Cval.Top -> None

let pp prog ppf r =
  Format.fprintf ppf "@[<v>";
  Prog.iter_procs prog (fun pr ->
      let consts =
        Array.to_list pr.Prog.formals
        |> List.filter_map (fun f ->
               match r.value.(f) with
               | Cval.Const c -> Some (f, c)
               | Cval.Bottom | Cval.Top -> None)
      in
      if consts <> [] then begin
        Format.fprintf ppf "%s:" pr.Prog.pname;
        List.iter
          (fun (f, c) ->
            Format.fprintf ppf " %s = %d%s" (Prog.var prog f).Prog.vname c
              (if Bitvec.get r.foldable f then " (foldable)" else ""))
          consts;
        Format.fprintf ppf "@,"
      end);
  Format.fprintf ppf "@]"
