module Prog = Ir.Prog
module Expr = Ir.Expr

(* One procedure's frozen ALIAS(p).  A pair [<x, y>] with [x < y] is
   the key [x * n_vars + y], so integer order is pair order.  The
   partner rows are the same pairs from both ends: the row of
   [vars.(i)] is [partners.(start.(i)) .. partners.(start.(i + 1) - 1)],
   ascending. *)
type rows = {
  keys : int array;  (* ascending *)
  tainted : Bytes.t;  (* '\001' at [i] iff [keys.(i)] is pointer-tainted *)
  vars : int array;  (* variables with a partner, ascending *)
  start : int array;  (* length [Array.length vars + 1] *)
  partners : int array;
}

type t = { n_vars : int; rows : rows array (* per procedure *) }

let no_rows =
  { keys = [||]; tainted = Bytes.empty; vars = [||]; start = [| 0 |]; partners = [||] }

let norm (x : int) (y : int) = if x <= y then (x, y) else (y, x)

(* Index of [x] in the ascending array [a], negative if absent. *)
let find a x = Bitvec.search a (Array.length a) x

let pairs_metric = Obs.Metric.gauge "alias.pairs"
let visits_metric = Obs.Metric.counter "alias.pair_visits"
let reads_metric = Obs.Metric.counter "alias.slice_reads"
let sorts_metric = Obs.Metric.counter "alias.slice_sorts"
let cells_metric = Obs.Metric.counter "alias.binding_cells"

(* One by-reference binding of a call site: argument position, the
   callee's formal, and what the actual names.  A plain actual binds
   its base variable ([base >= 0], [cells] empty); a dereference actual
   [*...*p] binds, as one set binding ([base = -1]), the interned
   points-to projection [cells] of every variable it may name. *)
type binding = { pos : int; formal : int; base : int; cells : Ir.Info.cells }

let is_set b = b.base < 0
let holds b x = find b.cells.Ir.Info.vars x >= 0

(* A procedure's event log: every pair that enters ALIAS(p) or turns
   tainted there is appended once per event, as its key (see [rows]).
   Readers keep a cursor and only ever look at what was appended since.
   The log remembers the last slice it sorted: sites of one caller are
   consecutive in id order, so within a round they mostly read the same
   [from, upto) and sort it once.  [alias.slice_reads] counts the
   non-empty slices read and [alias.slice_sorts] the ones sorted; the
   difference hit the cache. *)
type log = {
  mutable buf : int array;
  mutable len : int;
  mutable sorted_from : int;
  mutable sorted_upto : int;
  mutable sorted : int array;
}

let new_log () = { buf = [||]; len = 0; sorted_from = 0; sorted_upto = 0; sorted = [||] }

let push log e =
  if log.len = Array.length log.buf then begin
    let grown = Array.make (Int.max 8 (2 * log.len)) 0 in
    Array.blit log.buf 0 grown 0 log.len;
    log.buf <- grown
  end;
  log.buf.(log.len) <- e;
  log.len <- log.len + 1

(* [a] sorted, each key once. *)
let sort_uniq (a : int array) =
  Array.sort Int.compare a;
  let n = ref 0 in
  Array.iteri
    (fun i e ->
      if i = 0 || a.(i - 1) <> e then begin
        a.(!n) <- e;
        incr n
      end)
    a;
  if !n = Array.length a then a else Array.sub a 0 !n

(* The entries [from, upto) sorted and deduplicated, i.e. in pair
   order, each pair once. *)
let slice log ~from ~upto =
  if from = upto then [||]
  else begin
    Obs.Metric.incr reads_metric;
    if from <> log.sorted_from || upto <> log.sorted_upto then begin
      Obs.Metric.incr sorts_metric;
      log.sorted <- sort_uniq (Array.sub log.buf from (upto - from));
      log.sorted_from <- from;
      log.sorted_upto <- upto
    end;
    log.sorted
  end

(* Index of the first binding with base [>= b] in a base-sorted array;
   the bindings on base [b] follow it contiguously. *)
let group_start (by_base : binding array) b =
  let lo = ref 0 and hi = ref (Array.length by_base) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if by_base.(mid).base < b then lo := mid + 1 else hi := mid
  done;
  !lo

let iter_group by_base b f =
  let i = ref (group_start by_base b) in
  while !i < Array.length by_base && by_base.(!i).base = b do
    f by_base.(!i);
    incr i
  done

type site_state = {
  site : Prog.site;
  bindings : binding array;  (* argument order *)
  by_base : binding array;  (* the plain ones, stably sorted by base *)
  sets : binding array;  (* the set ones, argument order *)
  mutable seen : int;  (* cursor into the caller's log *)
}

(* [f] on every binding on [x]: the plain bindings on base [x], then
   the set bindings whose cells hold [x].  The order moves no pair,
   taint or first-add reason: the bindings differ in formal, and every
   add made for one caller pair carries the same reason. *)
let iter_on st x f =
  iter_group st.by_base x f;
  for k = 0 to Array.length st.sets - 1 do
    let b = st.sets.(k) in
    if holds b x then f b
  done

(* Do two ascending arrays share a member?  [steps] counts the
   members stepped over. *)
let meet (a : int array) (b : int array) steps =
  let i = ref 0 and j = ref 0 and hit = ref false in
  while (not !hit) && !i < Array.length a && !j < Array.length b do
    incr steps;
    if a.(!i) = b.(!j) then hit := true else if a.(!i) < b.(!j) then incr i else incr j
  done;
  !hit

type child_state = { child : int; parent : int; mutable inherited : int }

(* Pair state while the closure runs: one open-addressing table for
   every procedure, keyed [pid * n_vars² + x * n_vars + y].  A slot
   holds [2 * key + 1] for a tainted pair, [2 * key] for a clean one,
   [-1] when empty.  Its own table because the closure is mostly probes:
   [Hashtbl.Make (Int)] in its place made [compute] 25-45% slower on
   the pair-heavy rows of BENCH_summary.json (its "ablations"). *)
type state = { mutable slots : int array; mutable bits : int; mutable count : int }

let new_state () = { slots = Array.make 1024 (-1); bits = 10; count = 0 }

(* Fibonacci hashing: the top [bits] bits of the product. *)
let slot_of st key =
  let mask = Array.length st.slots - 1 in
  let i = ref ((key * 0x1E3779B97F4A7C15) lsr (Sys.int_size - st.bits)) in
  while st.slots.(!i) >= 0 && st.slots.(!i) lsr 1 <> key do
    i := (!i + 1) land mask
  done;
  !i

(* [-1] if absent, else the taint bit. *)
let lookup st key =
  let s = st.slots.(slot_of st key) in
  if s < 0 then -1 else s land 1

let rec store st key taint =
  if 2 * (st.count + 1) > Array.length st.slots then begin
    let old = st.slots in
    st.slots <- Array.make (2 * Array.length old) (-1);
    st.bits <- st.bits + 1;
    st.count <- 0;
    Array.iter (fun s -> if s >= 0 then store st (s lsr 1) (s land 1)) old
  end;
  let i = slot_of st key in
  if st.slots.(i) < 0 then st.count <- st.count + 1;
  st.slots.(i) <- (2 * key) + taint

(* [rows] of one procedure from its complete log.  [deg] is an
   all-zero scratch array over variables and is left all-zero. *)
let freeze ~nv ~tainted_key (deg : int array) log =
  if log.len = 0 then no_rows
  else begin
    let keys = sort_uniq (Array.sub log.buf 0 log.len) in
    let tainted =
      Bytes.init (Array.length keys) (fun i ->
          if tainted_key keys.(i) then '\001' else '\000')
    in
    let members = ref [] in
    let bump v =
      if deg.(v) = 0 then members := v :: !members;
      deg.(v) <- deg.(v) + 1
    in
    Array.iter (fun e -> bump (e / nv); bump (e mod nv)) keys;
    let vars = Array.of_list !members in
    Array.sort Int.compare vars;
    (* Row starts; [deg] becomes each row's fill cursor.  Filling in
       key order leaves every row ascending: the partners below [v]
       come from earlier keys than the partners above it. *)
    let start = Array.make (Array.length vars + 1) 0 in
    Array.iteri
      (fun i v ->
        start.(i + 1) <- start.(i) + deg.(v);
        deg.(v) <- start.(i))
      vars;
    let partners = Array.make (2 * Array.length keys) 0 in
    let put v w =
      partners.(deg.(v)) <- w;
      deg.(v) <- deg.(v) + 1
    in
    Array.iter
      (fun e ->
        put (e / nv) (e mod nv);
        put (e mod nv) (e / nv))
      keys;
    Array.iter (fun v -> deg.(v) <- 0) vars;
    { keys; tainted; vars; start; partners }
  end

let compute ?provenance info =
  Obs.Span.with_ "alias" @@ fun () ->
  let prog = Ir.Info.prog info in
  let np = Prog.n_procs prog in
  let nv = Prog.n_vars prog in
  let nv2 = nv * nv in
  let state = new_state () in
  let logs = Array.init np (fun _ -> new_log ()) in
  let events = ref 0 in
  let visits = ref 0 in
  let n_pairs = ref 0 in
  (* Provenance hook: remember the rule that first put the pair in.
     [add] calls it only for a fresh pair, so first-add-wins and the
     recorded reasons reference strictly earlier facts.  Recording is
     pure hashtable work — the bit-vector op counts cannot differ. *)
  let record =
    match provenance with
    | None -> fun _ _ _ _ -> ()
    | Some table -> fun pid x y reason -> Hashtbl.add table (pid, x, y) reason
  in
  let tainted_now pid e = lookup state ((pid * nv2) + e) = 1 in
  (* [taint] marks a pointer-resolved derivation.  It is an OR over
     all derivations of the pair, so a pair introduced clean can
     become tainted by a later pointer-carried derivation — that is an
     event of its own, and readers re-derive from the pair with the
     taint set.  [a] and [b] are distinct, in either order. *)
  let add pid (a : int) (b : int) ~taint reason =
    let x = if a < b then a else b and y = if a < b then b else a in
    let e = (x * nv) + y in
    let key = (pid * nv2) + e in
    let was = lookup state key in
    if was < 0 then begin
      record pid x y reason;
      store state key (Bool.to_int taint);
      incr n_pairs;
      push logs.(pid) e;
      incr events
    end
    else if taint && was = 0 then begin
      store state key 1;
      push logs.(pid) e;
      incr events
    end
  in
  (* By-reference bindings of one site, built once.  A dereference
     actual [*...*p] binds whichever cell the dereference names, so it
     binds the points-to projection as one interned set, shared with
     every other dereference of the same answer; one that names nothing
     binds nothing. *)
  let site_state (s : Prog.site) =
    let callee = Prog.proc prog s.Prog.callee in
    let acc = ref [] in
    Array.iteri
      (fun i arg ->
        let formal = callee.Prog.formals.(i) in
        match arg with
        | Prog.Arg_value _ -> ()
        | Prog.Arg_ref (Expr.Lvar base | Expr.Lindex (base, _)) ->
          acc := { pos = i; formal; base; cells = Ir.Info.no_cells } :: !acc
        | Prog.Arg_ref (Expr.Lderef (p, d)) ->
          let cells = Ir.Info.deref_set info p d in
          if Array.length cells.Ir.Info.vars > 0 then
            acc := { pos = i; formal; base = -1; cells } :: !acc)
      s.Prog.args;
    let bindings = List.rev !acc in
    let sets, plain = List.partition is_set bindings in
    let by_base = Array.of_list plain in
    Array.stable_sort (fun a b -> Int.compare a.base b.base) by_base;
    { site = s; bindings = Array.of_list bindings; by_base; sets = Array.of_list sets; seen = 0 }
  in
  (* A site with no by-reference binding introduces and propagates
     nothing, so the rounds skip it and never read its caller's log. *)
  let sites =
    Array.of_list
      (List.filter
         (fun st -> Array.length st.bindings > 0)
         (List.map site_state (Array.to_list prog.Prog.sites)))
  in
  (* Introduction, on a site's first visit only (bindings never
     change): same base (or same may-named cell) at two positions;
     visible base.  Projection cells read here are counted in
     [cells_read].  Pairs from a set binding are tainted, so once its
     formal has been paired with every visible cell of one set, those
     adds are no-ops at every later site: [expanded] holds the
     [(formal, set id)] already walked. *)
  let cells_read = ref 0 in
  let expanded = Hashtbl.create 16 in
  let introduce st =
    let callee = st.site.Prog.callee in
    let sid = st.site.Prog.sid in
    let bs = st.bindings in
    Array.iteri
      (fun k bi ->
        if is_set bi then begin
          let reason = Provenance.Apointsto { site = sid; pos = bi.pos } in
          for l = k + 1 to Array.length bs - 1 do
            let bj = bs.(l) in
            let shared =
              if is_set bj then meet bi.cells.vars bj.cells.vars cells_read
              else begin
                incr cells_read;
                holds bi bj.base
              end
            in
            if shared then add callee bi.formal bj.formal ~taint:true reason
          done;
          let key = (bi.formal, bi.cells.Ir.Info.id) in
          if not (Hashtbl.mem expanded key) then begin
            Hashtbl.add expanded key ();
            let vars = bi.cells.Ir.Info.vars in
            cells_read := !cells_read + Array.length vars;
            Array.iter
              (fun c ->
                if c <> bi.formal && Prog.visible prog ~proc:callee ~var:c then
                  add callee bi.formal c ~taint:true reason)
              vars
          end
        end
        else begin
          cells_read := !cells_read + Array.length st.sets;
          iter_on st bi.base (fun bj ->
              if bi.pos < bj.pos then
                add callee bi.formal bj.formal ~taint:(is_set bj)
                  (if is_set bj then Provenance.Apointsto { site = sid; pos = bj.pos }
                   else Provenance.Apositions { site = sid; pos_i = bi.pos; pos_j = bj.pos }));
          (* [formal = base] only at a direct recursive call passing a
             formal to itself — a reflexive "pair" no consumer treats
             as an alias ([may_alias] is irreflexive), so never
             introduce one. *)
          if bi.base <> bi.formal && Prog.visible prog ~proc:callee ~var:bi.base then
            add callee bi.formal bi.base ~taint:false
              (Provenance.Avisible { site = sid; pos = bi.pos })
        end)
      bs
  in
  (* Propagation of the caller's pairs through the bindings: only the
     pairs that entered the caller, or turned tainted there, since the
     site's last visit.  Any other pair was propagated before with the
     taint it has now, so deriving from it again would add nothing. *)
  let propagate st =
    let caller = st.site.Prog.caller and callee = st.site.Prog.callee in
    let sid = st.site.Prog.sid in
    let log = logs.(caller) in
    let upto = log.len in
    Array.iter
      (fun e ->
        incr visits;
        let x = e / nv and y = e mod nv in
        let reason = Provenance.Apropagated { site = sid; from_pair = (x, y) } in
        let t0 = tainted_now caller e in
        let through bi other =
          iter_on st other (fun bj ->
              if bj.formal <> bi.formal then
                add callee bi.formal bj.formal ~taint:(t0 || is_set bi || is_set bj) reason);
          if other <> bi.formal && Prog.visible prog ~proc:callee ~var:other then
            add callee bi.formal other ~taint:(t0 || is_set bi) reason
        in
        iter_on st x (fun bi -> through bi y);
        iter_on st y (fun bi -> through bi x))
      (slice log ~from:st.seen ~upto);
    st.seen <- upto
  in
  (* Nesting inheritance: a pair that may hold on entry to [p] also
     holds inside every procedure declared in [p] (it executes within
     [p]'s activation and sees the same bindings).  Part of the
     fixpoint: sites inside nested procedures must propagate inherited
     pairs onward. *)
  let children =
    Array.of_list
      (List.filter_map
         (fun (pr : Prog.proc) ->
           Option.map
             (fun parent -> { child = pr.Prog.pid; parent; inherited = 0 })
             pr.Prog.parent)
         (Array.to_list prog.Prog.procs))
  in
  let inherit_down () =
    Array.iter
      (fun c ->
        let log = logs.(c.parent) in
        let upto = log.len in
        Array.iter
          (fun e ->
            incr visits;
            add c.child (e / nv) (e mod nv) ~taint:(tainted_now c.parent e)
              (Provenance.Ainherited { parent = c.parent }))
          (slice log ~from:c.inherited ~upto);
        c.inherited <- upto)
      children
  in
  (* Pointer-induced pairs the set bindings cannot express — two
     dereference actuals at one site that can only collide through a
     heap summary location — enter as seeds and close under
     propagation and inheritance like any other pair. *)
  let heap = function
    | Prog.Arg_ref (Expr.Lderef (p, d)) -> Ir.Info.deref_heap info p d
    | Prog.Arg_ref _ | Prog.Arg_value _ -> []
  in
  Prog.iter_sites prog (fun s ->
      let formals = (Prog.proc prog s.Prog.callee).Prog.formals in
      Array.iteri
        (fun i a ->
          match heap a with
          | [] -> ()
          | hi ->
            Array.iteri
              (fun j b ->
                if j > i && List.exists (fun k -> List.mem k (heap b)) hi then
                  add s.Prog.callee formals.(i) formals.(j) ~taint:true
                    (Provenance.Apointsto { site = s.Prog.sid; pos = i }))
              s.Prog.args)
        s.Prog.args);
  (* Rounds — sites by id, then inheritance — until one adds no event.
     A full sweep of every pair in this order adds pairs in the same
     order, so each recorded provenance reason is that sweep's. *)
  let round visit =
    let before = !events in
    Array.iter visit sites;
    inherit_down ();
    !events <> before
  in
  if round (fun st -> introduce st; propagate st) then
    while round propagate do
      ()
    done;
  Obs.Metric.add visits_metric !visits;
  Obs.Metric.add cells_metric !cells_read;
  Obs.Metric.set pairs_metric !n_pairs;
  let deg = Array.make nv 0 in
  let rows =
    Array.mapi
      (fun pid log -> freeze ~nv ~tainted_key:(tainted_now pid) deg log)
      logs
  in
  { n_vars = nv; rows }

let pairs t pid =
  let nv = t.n_vars in
  Array.fold_right (fun e acc -> (e / nv, e mod nv) :: acc) t.rows.(pid).keys []

let iter_pairs t pid f =
  let nv = t.n_vars and r = t.rows.(pid) in
  Array.iteri (fun i e -> f (e / nv) (e mod nv) (Bytes.get r.tainted i <> '\000')) r.keys

let pointer_tainted t ~proc (x, y) =
  let r = t.rows.(proc) in
  let i = find r.keys ((Int.min x y * t.n_vars) + Int.max x y) in
  i >= 0 && Bytes.get r.tainted i <> '\000'

let aliases_of t ~proc ~var =
  let r = t.rows.(proc) in
  let i = find r.vars var in
  if i < 0 then []
  else Array.to_list (Array.sub r.partners r.start.(i) (r.start.(i + 1) - r.start.(i)))

let may_alias t ~proc x y =
  x <> y && find t.rows.(proc).keys ((Int.min x y * t.n_vars) + Int.max x y) >= 0

(* Walk whichever is shorter: the set's members, looking each row up,
   or the rows, probing the set. *)
let close t ~proc set =
  let result = Bitvec.copy set in
  let r = t.rows.(proc) in
  let add_row i =
    for j = r.start.(i) to r.start.(i + 1) - 1 do
      Bitvec.set result r.partners.(j)
    done
  in
  if Array.length r.vars > 0 then begin
    if Bitvec.live_estimate set < Array.length r.vars then
      Bitvec.iter
        (fun v ->
          let i = find r.vars v in
          if i >= 0 then add_row i)
        set
    else Array.iteri (fun i v -> if Bitvec.get set v then add_row i) r.vars
  end;
  result

let total_pairs t = Array.fold_left (fun acc r -> acc + Array.length r.keys) 0 t.rows

let pp prog ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun pid r ->
      if Array.length r.keys > 0 then
        Format.fprintf ppf "ALIAS(%s) = {%a}@,"
          (Prog.proc prog pid).Prog.pname
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
             (fun ppf (x, y) ->
               Format.fprintf ppf "<%s, %s>" (Prog.var prog x).Prog.vname
                 (Prog.var prog y).Prog.vname))
          (pairs t pid))
    t.rows;
  Format.fprintf ppf "@]"
