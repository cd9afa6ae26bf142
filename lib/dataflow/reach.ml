type def = {
  did : int;
  block : int;
  ord : int;
  var : int;
  must : bool;
}

(* Definitions are numbered in instruction order ([Cfg.iter_instrs]),
   so each instruction's — and each block's — definitions are one
   contiguous run of ids.  Every table is sized by the definitions and
   instructions of this procedure, never by the program's variables. *)
type t = {
  cfg_ : Cfg.t;
  var_ : int array;  (** Per did, the variable written. *)
  must_ : Bytes.t;  (** Per did, ['\001'] when the write is definite. *)
  ins_start : int array;  (** First did of each instruction, plus [n_defs]. *)
  blk_ins : int array;  (** First instruction of each block, plus [n_instrs]. *)
  vars : int array;  (** The variables the procedure defines, ascending. *)
  var_start : int array;
      (** The dids of [vars.(l)] are [by_var.(var_start.(l) ..
          var_start.(l + 1) - 1)]. *)
  by_var : int array;  (** Dids grouped by variable, ascending in each group. *)
  killed : int array array;  (** Per block, the [vars] indices it kills, ascending. *)
  kill_visits : int;
  res : Solver.result;
}

(* First index in [lo, hi) whose element of the ascending [a] exceeds
   [x], or [hi]. *)
let first_above a lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The run of a start table (ascending, ending in a sentinel above
   every id) that holds id [x]. *)
let run_of a x = first_above a 0 (Array.length a) x - 1

(* Index of [v] in the strictly ascending [a], or -1. *)
let find a v =
  let i = first_above a 0 (Array.length a) (v - 1) in
  if i < Array.length a && a.(i) = v then i else -1

(* Whether the instruction's write of a variable is definite.  A call's
   definite writes are its kill set; any other instruction definitely
   writes at most its one whole-variable target. *)
let definite tf ins =
  match ins with
  | Cfg.Call sid -> Bitvec.get (Transfer.kill_of_site tf sid)
  | _ ->
    let ms = ref [] in
    Transfer.iter_must_def tf ins (fun v -> ms := v :: !ms);
    fun v -> List.mem v !ms

(* The definition universe, from a counting pass and a filling pass;
   also returns each did's index into [vars]. *)
let enumerate tf cfg =
  let blocks = cfg.Cfg.blocks in
  let blk_ins = Array.make (Array.length blocks + 1) 0 in
  Array.iteri
    (fun b blk -> blk_ins.(b + 1) <- blk_ins.(b) + Array.length blk.Cfg.instrs)
    blocks;
  let n_instrs = blk_ins.(Array.length blocks) in
  let ins_start = Array.make (n_instrs + 1) 0 in
  let j = ref 0 in
  Cfg.iter_instrs cfg (fun ~block:_ _ ins ->
      let n = ref 0 in
      Transfer.iter_may_def tf ins (fun _ -> incr n);
      ins_start.(!j + 1) <- ins_start.(!j) + !n;
      incr j);
  let nd = ins_start.(n_instrs) in
  let var_ = Array.make nd 0 and must_ = Bytes.make nd '\000' in
  j := 0;
  Cfg.iter_instrs cfg (fun ~block:_ _ ins ->
      let d = ref ins_start.(!j) in
      let definite = definite tf ins in
      Transfer.iter_may_def tf ins (fun v ->
          var_.(!d) <- v;
          if definite v then Bytes.set must_ !d '\001';
          incr d);
      incr j);
  let by_var = Array.init nd Fun.id in
  Array.stable_sort (fun a b -> Int.compare var_.(a) var_.(b)) by_var;
  let local = Array.make nd 0 in
  let n_vars = ref 0 in
  Array.iteri
    (fun i d ->
      if i > 0 && var_.(d) <> var_.(by_var.(i - 1)) then incr n_vars;
      local.(d) <- !n_vars)
    by_var;
  let n_vars = if nd = 0 then 0 else !n_vars + 1 in
  let vars = Array.make n_vars 0 and var_start = Array.make (n_vars + 1) nd in
  for i = nd - 1 downto 0 do
    let d = by_var.(i) in
    vars.(local.(d)) <- var_.(d);
    var_start.(local.(d)) <- i
  done;
  (var_, must_, ins_start, blk_ins, vars, var_start, by_var, local)

let solve tf cfg =
  let var_, must_, ins_start, blk_ins, vars, var_start, by_var, local =
    enumerate tf cfg
  in
  let nd = Array.length var_ in
  let blocks = cfg.Cfg.blocks in
  (* One backward walk per block.  A definition is downward-exposed
     (gen) iff no later instruction of the block definitely writes its
     variable; kill is the union of defs(v) over every variable the
     block definitely writes, each defs(v) walked once per block.
     [killed_in.(l)] is the last block seen killing [vars.(l)]. *)
  let killed_in = Array.make (Array.length vars) (-1) in
  let visits = ref 0 in
  let gen = Array.map (fun _ -> Bitvec.create nd) blocks in
  let kill = Array.map (fun _ -> Bitvec.create nd) blocks in
  let killed = Array.make (Array.length blocks) [||] in
  Array.iteri
    (fun bid blk ->
      let gens = ref [] and ks = ref [] in
      for i = Array.length blk.Cfg.instrs - 1 downto 0 do
        let j = blk_ins.(bid) + i in
        for d = ins_start.(j + 1) - 1 downto ins_start.(j) do
          if killed_in.(local.(d)) <> bid then gens := d :: !gens
        done;
        Transfer.iter_must_def tf (snd blk.Cfg.instrs.(i)) (fun v ->
            let l = find vars v in
            if l >= 0 && killed_in.(l) <> bid then begin
              killed_in.(l) <- bid;
              ks := l :: !ks
            end)
      done;
      (* Ascending, so small vectors grow at their end. *)
      List.iter (Bitvec.set gen.(bid)) !gens;
      let ks = Array.of_list !ks in
      Array.sort Int.compare ks;
      Array.iter
        (fun l ->
          visits := !visits + var_start.(l + 1) - var_start.(l);
          for x = var_start.(l) to var_start.(l + 1) - 1 do
            Bitvec.set kill.(bid) by_var.(x)
          done)
        ks;
      killed.(bid) <- ks)
    blocks;
  let problem =
    {
      Solver.direction = Solver.Forward;
      n_bits = nd;
      gen = (fun b -> gen.(b));
      kill = (fun b -> kill.(b));
      boundary = Bitvec.create nd;  (* Nothing reaches procedure entry. *)
    }
  in
  {
    cfg_ = cfg;
    var_;
    must_;
    ins_start;
    blk_ins;
    vars;
    var_start;
    by_var;
    killed;
    kill_visits = !visits;
    res = Solver.solve cfg problem;
  }

let cfg t = t.cfg_
let passes t = t.res.Solver.passes
let kill_visits t = t.kill_visits
let n_defs t = Array.length t.var_

let def t d =
  let j = run_of t.ins_start d in
  let block = run_of t.blk_ins j in
  let ord, _ = t.cfg_.Cfg.blocks.(block).Cfg.instrs.(j - t.blk_ins.(block)) in
  { did = d; block; ord; var = t.var_.(d); must = Bytes.get t.must_ d = '\001' }

let defs_of_var t v =
  let l = find t.vars v in
  if l < 0 then []
  else begin
    let acc = ref [] in
    for x = t.var_start.(l + 1) - 1 downto t.var_start.(l) do
      acc := t.by_var.(x) :: !acc
    done;
    !acc
  end

let reach_in t b = t.res.Solver.in_.(b)
let reach_out t b = t.res.Solver.out.(b)

let fold_instrs t tf ~block ~init ~f =
  let reach = Bitvec.copy (reach_in t block) in
  let instrs = t.cfg_.Cfg.blocks.(block).Cfg.instrs in
  let first = t.blk_ins.(block) in
  (* [since.(k)] is the first did of the instruction that last killed
     [killed.(k)], or -1 before the block's first kill of it. *)
  let killed = t.killed.(block) in
  let since = Array.make (Array.length killed) (-1) in
  let acc = ref init in
  Array.iteri
    (fun i (ord, ins) ->
      acc := f !acc ~reach_before:reach ~ord ins;
      let j = first + i in
      let here = t.ins_start.(j) in
      Transfer.iter_must_def tf ins (fun v ->
          let l = find t.vars v in
          if l >= 0 then begin
            let k = find killed l in
            let hi = t.var_start.(l + 1) in
            (* The first kill clears every definition of the variable,
               since any may reach; a later one only those the block
               made since the previous kill. *)
            let x, stop =
              if since.(k) < 0 then (ref t.var_start.(l), max_int)
              else (ref (first_above t.by_var t.var_start.(l) hi (since.(k) - 1)), here)
            in
            while !x < hi && t.by_var.(!x) < stop do
              Bitvec.unset reach t.by_var.(!x);
              incr x
            done;
            since.(k) <- here
          end);
      for d = here to t.ins_start.(j + 1) - 1 do
        Bitvec.set reach d
      done)
    instrs;
  !acc
