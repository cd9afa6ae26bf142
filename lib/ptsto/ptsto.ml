module Prog = Ir.Prog
module Expr = Ir.Expr
module Stmt = Ir.Stmt
module Types = Ir.Types
module Int_set = Set.Make (Int)

type tier = Steensgaard | Andersen

let tier_name = function Steensgaard -> "steensgaard" | Andersen -> "andersen"

let tier_of_string = function
  | "steensgaard" -> Some Steensgaard
  | "andersen" -> Some Andersen
  | _ -> None

let has_pointers prog =
  let n = Prog.n_vars prog in
  let rec scan vid =
    vid < n && (Types.is_ptr (Prog.var prog vid).Prog.vty || scan (vid + 1))
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* Constraint extraction.  Pointer values are created by [&x] and
   [new], moved by assignments and by-value argument passing, and
   cells are shared by by-reference bindings.  Sema guarantees a
   pointer-typed expression is a variable, an address-of, a
   dereference, or an allocation — nothing else has pointer type. *)

type rv =
  | Rvar of int  (* the value of variable [v] *)
  | Rderef of int * int  (* the value of [*^d v] *)
  | Raddr of int  (* [&v] *)
  | Rnew of int  (* heap location id *)

type cstr =
  | Flow of (int * int) * rv  (* cell [*^d base] := value *)
  | Bind_var of int * int  (* by-ref: formal names the actual's cell *)
  | Bind_deref of int * int * int  (* by-ref: formal names cell [*^d p] *)

let cell_is_ptr prog base d =
  match Types.deref d (Prog.var prog base).Prog.vty with
  | Some (Types.Ptr _) -> true
  | Some _ | None -> false

let extract prog =
  let cstrs = ref [] in
  let heap_names = ref [] in
  let n_heap = ref 0 in
  let emit c = cstrs := c :: !cstrs in
  let fresh_heap pname =
    let id = !n_heap in
    incr n_heap;
    heap_names := Printf.sprintf "new#%d@%s" id pname :: !heap_names;
    id
  in
  (* Heap ids are assigned in traversal order, so extraction is
     deterministic: procedures in pid order, statements in program
     order, call arguments left to right. *)
  let rv_of pname (e : Expr.t) =
    match e with
    | Expr.Var v -> Some (Rvar v)
    | Expr.Addr v -> Some (Raddr v)
    | Expr.Deref (p, d) -> Some (Rderef (p, d))
    | Expr.New _ -> Some (Rnew (fresh_heap pname))
    | Expr.Int _ | Expr.Bool _ | Expr.Index _ | Expr.Binop _ | Expr.Unop _ -> None
  in
  Prog.iter_procs prog (fun pr ->
      let pname = pr.Prog.pname in
      Stmt.iter
        (fun s ->
          match s with
          | Stmt.Assign (lv, e) -> (
            let cell =
              match lv with
              | Expr.Lvar x -> Some (x, 0)
              | Expr.Lderef (p, d) -> Some (p, d)
              | Expr.Lindex _ -> None
            in
            match cell with
            | Some (base, d) when cell_is_ptr prog base d -> (
              match rv_of pname e with
              | Some rv -> emit (Flow ((base, d), rv))
              | None -> ())
            | Some _ | None -> ())
          | Stmt.If _ | Stmt.While _ | Stmt.For _ | Stmt.Read _ | Stmt.Write _
          | Stmt.Call _ ->
            ())
        pr.Prog.body);
  Prog.iter_sites prog (fun s ->
      let caller = Prog.proc prog s.Prog.caller in
      let callee = Prog.proc prog s.Prog.callee in
      Array.iteri
        (fun i arg ->
          let f = callee.Prog.formals.(i) in
          match arg with
          | Prog.Arg_value e ->
            if Types.is_ptr (Prog.var prog f).Prog.vty then (
              match rv_of caller.Prog.pname e with
              | Some rv -> emit (Flow ((f, 0), rv))
              | None -> ())
          | Prog.Arg_ref (Expr.Lvar b) -> emit (Bind_var (f, b))
          | Prog.Arg_ref (Expr.Lindex _) -> ()
          | Prog.Arg_ref (Expr.Lderef (p, d)) -> emit (Bind_deref (f, p, d)))
        s.Prog.args);
  (List.rev !cstrs, !n_heap, Array.of_list (List.rev !heap_names))

(* ------------------------------------------------------------------ *)
(* Plain union-find (path compression + union by rank). *)

module Uf = struct
  type t = { mutable parent : int array; mutable rank : int array; mutable n : int }

  let create n = { parent = Array.init n Fun.id; rank = Array.make n 0; n }

  let rec find t x =
    let p = t.parent.(x) in
    if p = x then x
    else begin
      let r = find t p in
      t.parent.(x) <- r;
      r
    end

  let fresh t =
    let id = t.n in
    if id = Array.length t.parent then begin
      let cap = max 16 (2 * id) in
      let parent = Array.init cap (fun i -> if i < id then t.parent.(i) else i) in
      let rank = Array.make cap 0 in
      Array.blit t.rank 0 rank 0 id;
      t.parent <- parent;
      t.rank <- rank
    end;
    t.parent.(id) <- id;
    t.rank.(id) <- 0;
    t.n <- id + 1;
    id

  (* Union; returns the surviving root. *)
  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then ra
    else if t.rank.(ra) < t.rank.(rb) then begin
      t.parent.(ra) <- rb;
      rb
    end
    else begin
      t.parent.(rb) <- ra;
      if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
      ra
    end
end

(* ------------------------------------------------------------------ *)
(* Steensgaard: an equivalence class per set of conflated locations,
   each class carrying at most one points-to class.  Merging two
   classes recursively merges what they point to — the classic
   almost-linear unification. *)

module Steens = struct
  type t = { uf : Uf.t; mutable pts : int array (* root -> class, -1 = none *) }

  let create n_locs =
    { uf = Uf.create n_locs; pts = Array.make (max 16 n_locs) (-1) }

  let ensure_pts_capacity t =
    let n = t.uf.Uf.n in
    if n > Array.length t.pts then begin
      let grown = Array.make (max n (2 * Array.length t.pts)) (-1) in
      Array.blit t.pts 0 grown 0 (Array.length t.pts);
      t.pts <- grown
    end

  let rec unify t a b =
    let ra = Uf.find t.uf a and rb = Uf.find t.uf b in
    if ra <> rb then begin
      let pa = t.pts.(ra) and pb = t.pts.(rb) in
      let root = Uf.union t.uf ra rb in
      t.pts.(root) <- (if pa >= 0 then pa else pb);
      if pa >= 0 && pb >= 0 then unify t pa pb
    end

  (* The class this class points to, created on demand. *)
  let pts_of t l =
    let r = Uf.find t.uf l in
    if t.pts.(r) >= 0 then Uf.find t.uf t.pts.(r)
    else begin
      let c = Uf.fresh t.uf in
      ensure_pts_capacity t;
      t.pts.(c) <- -1;
      t.pts.(r) <- c;
      c
    end

  let pts_opt t l =
    let r = Uf.find t.uf l in
    if t.pts.(r) >= 0 then Some (Uf.find t.uf t.pts.(r)) else None

  (* Class of the cell the [d]-fold dereference of variable-loc [v]
     names ([d = 0] is the variable's own cell). *)
  let cell t v d =
    let c = ref (Uf.find t.uf v) in
    for _ = 1 to d do
      c := pts_of t !c
    done;
    !c

  let solve n_locs cstrs =
    let t = create n_locs in
    List.iter
      (fun c ->
        match c with
        | Flow ((base, d), rv) ->
          let lhs_content = pts_of t (cell t base d) in
          let rhs_content =
            match rv with
            | Rvar q -> pts_of t (cell t q 0)
            | Rderef (q, d') -> pts_of t (cell t q d')
            | Raddr x -> Uf.find t.uf x
            | Rnew _ -> assert false (* rewritten to [Raddr] pre-solve *)
          in
          unify t lhs_content rhs_content
        | Bind_var (f, b) -> unify t f b
        | Bind_deref (f, p, d) -> unify t f (cell t p d))
      cstrs;
    t
end

(* ------------------------------------------------------------------ *)
(* Andersen: inclusion constraints solved by naive iteration — small
   programs, and the generated workloads stay well within budget. *)

module Ander = struct
  type t = {
    n_locs : int;
    mutable n : int;
    mutable pts : Int_set.t array;
    mutable succs : int list array;
    edge_set : (int * int, unit) Hashtbl.t;
    mutable loads : (int * int) list;  (* (p, x): ∀l∈pts p, pts x ⊇ pts l *)
    mutable stores : (int * int) list;  (* (p, v): ∀l∈pts p, pts l ⊇ pts v *)
    mutable dirty : bool;
  }

  let create n_locs =
    let cap = max 16 (2 * n_locs) in
    {
      n_locs;
      n = n_locs;
      pts = Array.make cap Int_set.empty;
      succs = Array.make cap [];
      edge_set = Hashtbl.create 64;
      loads = [];
      stores = [];
      dirty = false;
    }

  let fresh t =
    let id = t.n in
    if id = Array.length t.pts then begin
      let cap = 2 * id in
      let pts = Array.make cap Int_set.empty in
      Array.blit t.pts 0 pts 0 id;
      let succs = Array.make cap [] in
      Array.blit t.succs 0 succs 0 id;
      t.pts <- pts;
      t.succs <- succs
    end;
    t.n <- id + 1;
    id

  let add_edge t s d =
    if s <> d && not (Hashtbl.mem t.edge_set (s, d)) then begin
      Hashtbl.add t.edge_set (s, d) ();
      t.succs.(s) <- d :: t.succs.(s);
      t.dirty <- true
    end

  let add_loc t x l =
    if not (Int_set.mem l t.pts.(x)) then begin
      t.pts.(x) <- Int_set.add l t.pts.(x);
      t.dirty <- true
    end

  (* Node whose pts set is the set of cells [*^d v] may name (so the
     node standing for the {e value} of [*^(d-1) v]).  [d = 1] is [v]
     itself. *)
  let rec chain t v d =
    if d = 1 then v
    else begin
      let prev = chain t v (d - 1) in
      let node = fresh t in
      t.loads <- (prev, node) :: t.loads;
      node
    end

  let value_node t rv =
    match rv with
    | Rvar q -> q
    | Rderef (q, d) ->
      let prev = chain t q d in
      let node = fresh t in
      t.loads <- (prev, node) :: t.loads;
      node
    | Raddr x ->
      let node = fresh t in
      add_loc t node x;
      node
    | Rnew _ -> assert false (* rewritten to [Raddr] pre-solve *)

  let solve n_locs cstrs =
    let t = create n_locs in
    List.iter
      (fun c ->
        match c with
        | Flow ((base, d), rv) ->
          let v = value_node t rv in
          if d = 0 then add_edge t v base
          else begin
            let cell = chain t base d in
            t.stores <- (cell, v) :: t.stores
          end
        | Bind_var (f, b) ->
          add_edge t f b;
          add_edge t b f
        | Bind_deref (f, p, d) ->
          let cell = chain t p d in
          t.loads <- (cell, f) :: t.loads;
          t.stores <- (cell, f) :: t.stores)
      cstrs;
    t.dirty <- true;
    while t.dirty do
      t.dirty <- false;
      for s = 0 to t.n - 1 do
        List.iter
          (fun d ->
            let u = Int_set.union t.pts.(d) t.pts.(s) in
            if not (Int_set.equal u t.pts.(d)) then begin
              t.pts.(d) <- u;
              t.dirty <- true
            end)
          t.succs.(s)
      done;
      List.iter
        (fun (p, x) -> Int_set.iter (fun l -> add_edge t l x) t.pts.(p))
        t.loads;
      List.iter
        (fun (p, v) -> Int_set.iter (fun l -> add_edge t v l) t.pts.(p))
        t.stores
    done;
    t

  (* Cells [*^d p] may name, as a loc set. *)
  let cells t p d =
    let s = ref t.pts.(p) in
    for _ = 2 to d do
      s := Int_set.fold (fun l acc -> Int_set.union t.pts.(l) acc) !s Int_set.empty
    done;
    !s
end

(* ------------------------------------------------------------------ *)

type solver = Sol_steens of Steens.t | Sol_ander of Ander.t

type t = {
  prog : Prog.t;
  tier : tier;
  n_heap : int;
  heap_names : string array;
  proj : (int list * int list) array array;
      (* [proj.(v).(d - 1)]: the variables and the heap sites [*^d v] may
         name, for [1 <= d <= ptr_depth v]; empty rows elsewhere *)
  sets : Ir.Info.cells array array;  (* the variables of [proj], interned *)
}

let tier t = t.tier
let prog t = t.prog
let n_heap t = t.n_heap
let heap_name t k = t.heap_names.(k)

let projection t p d =
  let row = t.proj.(p) in
  if d >= 1 && d <= Array.length row then row.(d - 1) else ([], [])

let deref_targets t p d = fst (projection t p d)
let deref_heap t p d = snd (projection t p d)

let deref_set t p d =
  let row = t.sets.(p) in
  if d >= 1 && d <= Array.length row then row.(d - 1) else Ir.Info.no_cells

let pointers t =
  { Ir.Info.deref = deref_targets t; deref_heap = deref_heap t; deref_set = deref_set t }

let same_projection a b = a.proj = b.proj

let points_to t p =
  List.map (fun v -> `Var v) (deref_targets t p 1)
  @ List.map (fun k -> `Heap k) (deref_heap t p 1)

let size t =
  let nv = Prog.n_vars t.prog in
  let acc = ref 0 in
  for vid = 0 to nv - 1 do
    if Types.is_ptr (Prog.var t.prog vid).Prog.vty then
      acc := !acc + List.length (points_to t vid)
  done;
  !acc

(* Raw (pre-storage-closure) cells of [*^d p], split vars / heap ids.
   [classes] maps a Steensgaard class root to its members, split. *)
let raw_cells prog solver classes p d =
  match solver with
  | Sol_ander a ->
    let nv = Prog.n_vars prog in
    let locs = Int_set.elements (Ander.cells a p d) in
    ( List.filter (fun l -> l < nv) locs,
      List.filter_map (fun l -> if l >= nv then Some (l - nv) else None) locs )
  | Sol_steens s ->
    let rec follow c k =
      if k = 0 then Some c
      else
        match Steens.pts_opt s c with
        | None -> None
        | Some c' -> follow c' (k - 1)
    in
    (match follow (Uf.find s.Steens.uf p) d with
    | None -> ([], [])
    | Some root -> Option.value ~default:([], []) (Hashtbl.find_opt classes root))

(* Storage closure.  The cells variable [v]'s storage may actually be
   are [v] itself plus, for a by-ref formal, every cell a binding may
   hand it, transitively: the nodes [v] reaches in the bound-to graph
   ([v -> s] for each binding source [s]).  So condense that graph and
   take one union pass through the propagation driver, sinks first
   (Figure 1's shape); every member of a component shares its sets.
   [heap_src.(v)] are the heap cells bound to [v] directly. *)
type storage = {
  comp : int array;  (* variable -> component *)
  comp_v : Int_set.t array;  (* component -> variable cells reached *)
  comp_h : Int_set.t array;  (* component -> heap cells reached *)
}

let storage_closure g ~heap_src =
  let scc = Graphs.Scc.compute g in
  let comp = scc.Graphs.Scc.comp in
  let comp_v = Array.make scc.Graphs.Scc.n_comps Int_set.empty in
  let comp_h = Array.make scc.Graphs.Scc.n_comps Int_set.empty in
  ignore
  @@ Par.Wavefront.resolve None scc ~seeds:Par.Wavefront.All ~cost:(fun _ -> 1)
       ~f:(fun ~slot:_ ~comp:c ->
         List.iter
           (fun v ->
             comp_v.(c) <- Int_set.add v comp_v.(c);
             comp_h.(c) <- Int_set.union heap_src.(v) comp_h.(c))
           scc.Graphs.Scc.members.(c);
         Array.iter
           (fun cu ->
             comp_v.(c) <- Int_set.union comp_v.(cu) comp_v.(c);
             comp_h.(c) <- Int_set.union comp_h.(cu) comp_h.(c))
           scc.Graphs.Scc.succs.(c);
         true);
  { comp; comp_v; comp_h }

let analyze ?(tier = Steensgaard) prog =
  let cstrs, n_heap, heap_names = extract prog in
  let nv = Prog.n_vars prog in
  let n_locs = nv + n_heap in
  (* Heap site [k] is loc [nv + k]; rewrite Rnew payloads to loc ids
     for the solvers. *)
  let heap_loc k = nv + k in
  let cstrs_loc =
    List.map
      (function
        | Flow (cell, Rnew k) -> Flow (cell, Raddr (heap_loc k))
        | c -> c)
      cstrs
  in
  let solver =
    match tier with
    | Steensgaard -> Sol_steens (Steens.solve n_locs cstrs_loc)
    | Andersen -> Sol_ander (Ander.solve n_locs cstrs_loc)
  in
  let classes = Hashtbl.create 64 in
  (match solver with
  | Sol_steens s ->
    for l = n_locs - 1 downto 0 do
      let r = Uf.find s.Steens.uf l in
      let vars, heap = Option.value ~default:([], []) (Hashtbl.find_opt classes r) in
      Hashtbl.replace classes r
        (if l < nv then (l :: vars, heap) else (vars, (l - nv) :: heap))
    done
  | Sol_ander _ -> ());
  let raw_cells = raw_cells prog solver classes in
  (* The bound-to graph: a [Bind_var] hands the formal the actual's
     cell, a [Bind_deref] any raw cell of the dereference.  Crucially
     this stays per-node reachability, not an equivalence class —
     [call f(ref *r)] with [pts(r) = {x, y}] must not fuse [x] with
     [y]. *)
  let src_v = Array.make nv Int_set.empty and heap_src = Array.make nv Int_set.empty in
  (* A formal is often bound to the same raw cells at many sites (every
     pointer of one Steensgaard class yields the same cells); add each
     such set once. *)
  let bound = Hashtbl.create 64 in
  List.iter
    (function
      | Bind_var (f, b) -> src_v.(f) <- Int_set.add b src_v.(f)
      | Bind_deref (f, p, d) ->
        let ((vars, heap) as raw) = raw_cells p d in
        if not (Hashtbl.mem bound (f, raw)) then begin
          Hashtbl.add bound (f, raw) ();
          src_v.(f) <- List.fold_left (fun a v -> Int_set.add v a) src_v.(f) vars;
          heap_src.(f) <- List.fold_left (fun a k -> Int_set.add k a) heap_src.(f) heap
        end
      | Flow _ -> ())
    cstrs_loc;
  let g = Graphs.Digraph.Builder.create ~nodes:nv () in
  Array.iteri
    (fun f srcs ->
      Int_set.iter
        (fun v -> ignore (Graphs.Digraph.Builder.add_edge g ~src:f ~dst:v))
        srcs)
    src_v;
  let g = Graphs.Digraph.Builder.freeze g in
  let st = storage_closure g ~heap_src in
  (* Reverse index: the bound-to graph reversed (cell -> variables bound
     to it), and heap cell -> variables bound to it.  Walking it back
     from a set of cells finds every variable whose storage reaches one
     of them, in time proportional to what it finds; the transitive
     index itself would be as large as all storage sets together,
     quadratic on a by-ref chain. *)
  let bound_to = Graphs.Digraph.reverse g in
  let heap_bound = Array.make n_heap [] in
  for v = nv - 1 downto 0 do
    Int_set.iter (fun k -> heap_bound.(k) <- v :: heap_bound.(k)) heap_src.(v)
  done;
  let mark = Array.make nv (-1) and stamp = ref 0 in
  (* Every distinct variable answer is interned once: a dense id in
     first-seen order and one shared array. *)
  let interned = Hashtbl.create 64 in
  Hashtbl.replace interned [] Ir.Info.no_cells;
  let intern vars =
    match Hashtbl.find_opt interned vars with
    | Some c -> c
    | None ->
      let c = { Ir.Info.id = Hashtbl.length interned; vars = Array.of_list vars } in
      Hashtbl.replace interned vars c;
      c
  in
  (* The projection of a dereference depends only on its raw cells, so
     dereferences with the same raw cells (every pointer of one
     Steensgaard class) share one answer. *)
  let closed = Hashtbl.create 64 in
  let close ((vars, heap) as raw) =
    match Hashtbl.find_opt closed raw with
    | Some answer -> answer
    | None ->
      (* Storage the dereference may actually strike: the raw cells'
         own possible storage (a raw formal cell carries its binding
         sources along). *)
      let comps = List.fold_left (fun a v -> Int_set.add st.comp.(v) a) Int_set.empty vars in
      let s = Int_set.fold (fun c a -> Int_set.union st.comp_v.(c) a) comps Int_set.empty in
      let sh =
        Int_set.fold (fun c a -> Int_set.union st.comp_h.(c) a) comps (Int_set.of_list heap)
      in
      (* A variable may name the dereferenced cell iff its possible
         storage meets that of the raw cells: iff it reaches a cell of
         [s], or a variable bound to a heap cell of [sh]. *)
      incr stamp;
      let q = !stamp in
      let todo = ref [] and out = ref [] in
      let reach v =
        if mark.(v) <> q then begin
          mark.(v) <- q;
          todo := v :: !todo
        end
      in
      Int_set.iter reach s;
      Int_set.iter (fun k -> List.iter reach heap_bound.(k)) sh;
      let rec drain () =
        match !todo with
        | [] -> ()
        | v :: rest ->
          todo := rest;
          out := v :: !out;
          Graphs.Digraph.iter_succ bound_to v reach;
          drain ()
      in
      drain ();
      let targets = List.sort Int.compare !out in
      let answer = ((targets, Int_set.elements sh), intern targets) in
      Hashtbl.replace closed raw answer;
      answer
  in
  let answers =
    Array.init nv (fun v ->
        Array.init
          (Types.ptr_depth (Prog.var prog v).Prog.vty)
          (fun i -> close (raw_cells v (i + 1))))
  in
  let proj = Array.map (Array.map fst) answers in
  let sets = Array.map (Array.map snd) answers in
  { prog; tier; n_heap; heap_names; proj; sets }

let pp ppf t =
  let prog = t.prog in
  let nv = Prog.n_vars prog in
  Format.fprintf ppf "@[<v>points-to (%s):@," (tier_name t.tier);
  for vid = 0 to nv - 1 do
    if Types.is_ptr (Prog.var prog vid).Prog.vty then begin
      let cells = points_to t vid in
      if cells <> [] then
        Format.fprintf ppf "  %s -> {%s}@,"
          (Ir.Pp.qualified_var_name prog vid)
          (String.concat ", "
             (List.map
                (function
                  | `Var v -> Ir.Pp.qualified_var_name prog v
                  | `Heap k -> t.heap_names.(k))
                cells))
    end
  done;
  Format.fprintf ppf "@]"
