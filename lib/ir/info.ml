type cells = { id : int; vars : int array }

type pointers = {
  deref : int -> int -> int list;
  deref_heap : int -> int -> int list;
  deref_set : int -> int -> cells;
}

let no_cells = { id = 0; vars = [||] }

let no_pointers =
  { deref = (fun _ _ -> []); deref_heap = (fun _ _ -> []); deref_set = (fun _ _ -> no_cells) }

type t = {
  prog : Prog.t;
  pointers : pointers;
  taken : bool array;
  local : Bitvec.t array;
  non_local : Bitvec.t array;
  global : Bitvec.t;
  visible : Bitvec.t array;
  var_level : int array;
  by_level : Bitvec.t array; (* index l: vars with level <= l *)
}

(* Variables whose address some [&x] takes, anywhere in the program:
   a syntactic scan, so the answer does not depend on the points-to
   tier.  Without a pointer-typed variable no address can be stored,
   so nothing escapes and the scan is skipped. *)
let address_taken prog =
  let taken = Array.make (Prog.n_vars prog) false in
  let rec expr (e : Expr.t) =
    match e with
    | Expr.Addr v -> taken.(v) <- true
    | Expr.Index (_, idx) -> List.iter expr idx
    | Expr.Binop (_, l, r) ->
      expr l;
      expr r
    | Expr.Unop (_, e) -> expr e
    | Expr.Int _ | Expr.Bool _ | Expr.Var _ | Expr.Deref _ | Expr.New _ -> ()
  in
  let lvalue (lv : Expr.lvalue) =
    match lv with
    | Expr.Lindex (_, idx) -> List.iter expr idx
    | Expr.Lvar _ | Expr.Lderef _ -> ()
  in
  if Array.exists (fun (v : Prog.var) -> Types.is_ptr v.Prog.vty) prog.Prog.vars then begin
    Prog.iter_procs prog (fun pr ->
        Stmt.iter
          (fun (s : Stmt.t) ->
            match s with
            | Stmt.Assign (lv, e) ->
              lvalue lv;
              expr e
            | Stmt.Read lv -> lvalue lv
            | Stmt.If (e, _, _) | Stmt.While (e, _) | Stmt.Write e -> expr e
            | Stmt.For (_, lo, hi, _) ->
              expr lo;
              expr hi
            | Stmt.Call _ -> ())
          pr.Prog.body);
    Prog.iter_sites prog (fun s ->
        Array.iter
          (function Prog.Arg_value e -> expr e | Prog.Arg_ref lv -> lvalue lv)
          s.Prog.args)
  end;
  taken

let make ?(pointers = no_pointers) prog =
  let nv = Prog.n_vars prog in
  let np = Prog.n_procs prog in
  let local = Array.init np (fun _ -> Bitvec.create nv) in
  let global = Bitvec.create nv in
  let var_level = Array.make nv 0 in
  (* A local or by-value formal whose address is taken can be named
     through a pointer from any activation, its owner's callees and
     other activations of the owner included, so it is not in
     [LOCAL(owner)] and gets level 0: equation 4, the eq. 8
     projection and the §4 level masks then carry it across calls as
     they carry a global.  A by-reference formal stays local: its
     address is the actual's. *)
  let taken = address_taken prog in
  let escapes (v : Prog.var) = taken.(v.Prog.vid) && not (Prog.is_ref_formal v) in
  Prog.iter_vars prog (fun v ->
      (match Prog.var_owner v with
      | None -> Bitvec.set global v.Prog.vid
      | Some owner -> Bitvec.set local.(owner) v.Prog.vid);
      var_level.(v.Prog.vid) <- (if escapes v then 0 else Prog.owner_level prog v));
  let visible = Array.make np global in
  (* Walk procedures in increasing pid?  Parents may have any pid, so
     compute by recursion over the nesting chain with memoisation. *)
  let computed = Array.make np false in
  let rec vis pid =
    if computed.(pid) then visible.(pid)
    else begin
      let base =
        match (Prog.proc prog pid).Prog.parent with
        | None -> global
        | Some parent -> vis parent
      in
      let v = Bitvec.copy base in
      ignore (Bitvec.union_into ~src:local.(pid) ~dst:v);
      visible.(pid) <- v;
      computed.(pid) <- true;
      v
    end
  in
  for pid = 0 to np - 1 do
    ignore (vis pid)
  done;
  Prog.iter_vars prog (fun v ->
      match Prog.var_owner v with
      | Some owner when escapes v -> Bitvec.unset local.(owner) v.Prog.vid
      | Some _ | None -> ());
  let full = Bitvec.create nv in
  for i = 0 to nv - 1 do
    Bitvec.set full i
  done;
  let non_local = Array.map (fun l -> Bitvec.diff full l) local in
  let dp = Prog.max_level prog in
  let by_level =
    Array.init (dp + 1) (fun l ->
        let v = Bitvec.create nv in
        for i = 0 to nv - 1 do
          if var_level.(i) <= l then Bitvec.set v i
        done;
        v)
  in
  { prog; pointers; taken; local; non_local; global; visible; var_level; by_level }

let prog t = t.prog

let with_prog ?(pointers = no_pointers) t prog =
  if address_taken prog = t.taken then Some { t with prog; pointers } else None

let without_pointers t = { t with pointers = no_pointers }
let n_vars t = Prog.n_vars t.prog
let local t pid = t.local.(pid)
let non_local t pid = t.non_local.(pid)
let global t = t.global
let visible t pid = t.visible.(pid)
let var_level t vid = t.var_level.(vid)

let level_at_most t l =
  let max_l = Array.length t.by_level - 1 in
  t.by_level.(if l > max_l then max_l else l)

let fresh t = Bitvec.create (n_vars t)
let deref t p d = t.pointers.deref p d
let deref_heap t p d = t.pointers.deref_heap p d
let deref_set t p d = t.pointers.deref_set p d

let lvalue_cells t (lv : Expr.lvalue) =
  match lv with
  | Expr.Lvar v | Expr.Lindex (v, _) -> [ v ]
  | Expr.Lderef (p, d) -> t.pointers.deref p d

(* Batch folds every procedure, deepest first, so children are final
   before parents fold them in.  With [prev = (folded, seeds)], the fold
   of a previous family that differed from [sets] at most at [seeds],
   only the seeds and their lexical ancestors can move: the walk covers
   that cone, skips an ancestor whose children all came out unchanged,
   and shares every vector that did not move. *)
let fold_up_nesting ?prev t sets =
  let p = t.prog in
  let np = Prog.n_procs p in
  let is_seed = Array.make np (prev = None) in
  let result, cone =
    match prev with
    | None -> (Array.copy sets, List.init np Fun.id)
    | Some (folded, seeds) ->
      let in_cone = Array.make np false in
      let cone = ref [] in
      let rec mark q =
        if not in_cone.(q) then begin
          in_cone.(q) <- true;
          cone := q :: !cone;
          Option.iter mark (Prog.proc p q).Prog.parent
        end
      in
      List.iter (fun q -> is_seed.(q) <- true; mark q) seeds;
      (Array.copy folded, !cone)
  in
  let changed = Array.make np false in
  let level q = (Prog.proc p q).Prog.level in
  List.iter
    (fun q ->
      let nested = (Prog.proc p q).Prog.nested in
      if is_seed.(q) || List.exists (Array.get changed) nested then begin
        let v = Bitvec.copy sets.(q) in
        List.iter
          (fun ch ->
            let escaped = Bitvec.copy result.(ch) in
            ignore (Bitvec.inter_into ~src:t.non_local.(ch) ~dst:escaped);
            ignore (Bitvec.union_into ~src:escaped ~dst:v))
          nested;
        match prev with
        | Some (folded, _) when Bitvec.equal v folded.(q) -> ()
        | _ ->
          result.(q) <- v;
          changed.(q) <- true
      end)
    (List.sort (fun a b -> compare (level b) (level a)) cone);
  match (prev, List.filter (Array.get changed) cone) with
  | Some (folded, _), [] -> (folded, [])
  | _, changed -> (result, changed)
