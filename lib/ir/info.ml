type t = {
  prog : Prog.t;
  local : Bitvec.t array;
  non_local : Bitvec.t array;
  global : Bitvec.t;
  visible : Bitvec.t array;
  var_level : int array;
  by_level : Bitvec.t array; (* index l: vars with level <= l *)
}

let make prog =
  let nv = Prog.n_vars prog in
  let np = Prog.n_procs prog in
  let local = Array.init np (fun _ -> Bitvec.create nv) in
  let global = Bitvec.create nv in
  let var_level = Array.make nv 0 in
  Prog.iter_vars prog (fun v ->
      (match Prog.var_owner v with
      | None -> Bitvec.set global v.Prog.vid
      | Some owner -> Bitvec.set local.(owner) v.Prog.vid);
      var_level.(v.Prog.vid) <- Prog.owner_level prog v);
  let full = Bitvec.create nv in
  for i = 0 to nv - 1 do
    Bitvec.set full i
  done;
  let non_local = Array.map (fun l -> Bitvec.diff full l) local in
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
  let dp = Prog.max_level prog in
  let by_level =
    Array.init (dp + 1) (fun l ->
        let v = Bitvec.create nv in
        for i = 0 to nv - 1 do
          if var_level.(i) <= l then Bitvec.set v i
        done;
        v)
  in
  { prog; local; non_local; global; visible; var_level; by_level }

let prog t = t.prog
let with_prog t prog = { t with prog }
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
