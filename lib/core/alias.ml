module Prog = Ir.Prog
module Expr = Ir.Expr

module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type t = {
  info : Ir.Info.t;
  alias : Pair_set.t array; (* per procedure *)
  tainted : Pair_set.t array;
      (* pairs whose derivation involved pointer resolution (a
         dereference binding or a heap-overlap seed), transitively
         through propagation and inheritance *)
}

let norm x y = if x <= y then (x, y) else (y, x)

let pairs_metric = Obs.Metric.gauge "alias.pairs"
let visits_metric = Obs.Metric.counter "alias.pair_visits"

(* One by-reference binding of a call site: argument position, the
   callee's formal, the actual's base variable, and whether the base
   came from the points-to projection of a dereference actual. *)
type binding = { pos : int; formal : int; base : int; ptr : bool }

(* A procedure's event log: every pair that enters ALIAS(p) or turns
   tainted there is appended once per event, encoded [x * n_vars + y]
   so that integer order is [Pair_set] order.  Readers keep a cursor
   and only ever look at what was appended since. *)
type log = { mutable buf : int array; mutable len : int }

let push log e =
  if log.len = Array.length log.buf then begin
    let grown = Array.make (max 8 (2 * log.len)) 0 in
    Array.blit log.buf 0 grown 0 log.len;
    log.buf <- grown
  end;
  log.buf.(log.len) <- e;
  log.len <- log.len + 1

(* The entries [from, upto) sorted and deduplicated, i.e. in [Pair_set]
   order, each pair once. *)
let iter_slice log ~from ~upto f =
  let a = Array.sub log.buf from (upto - from) in
  Array.sort Int.compare a;
  Array.iteri (fun i e -> if i = 0 || a.(i - 1) <> e then f e) a

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
  by_base : binding array;  (* stably sorted by base *)
  mutable seen : int;  (* cursor into the caller's log *)
}

type child_state = { child : int; parent : int; mutable inherited : int }

let compute ?provenance ?(deref = Frontend.Local.no_deref) ?(seeds = []) info =
  Obs.Span.with_ "alias" @@ fun () ->
  let prog = Ir.Info.prog info in
  let np = Prog.n_procs prog in
  let nv = Prog.n_vars prog in
  let alias = Array.make np Pair_set.empty in
  let tainted = Array.make np Pair_set.empty in
  let logs = Array.init np (fun _ -> { buf = [||]; len = 0 }) in
  let events = ref 0 in
  let visits = ref 0 in
  (* Provenance hook: remember the rule that first put the pair in.
     [add] calls it only for a fresh pair, so first-add-wins and the
     recorded reasons reference strictly earlier facts.  Recording is
     pure hashtable work — the bit-vector op counts cannot differ. *)
  let record =
    match provenance with
    | None -> fun _ _ _ -> ()
    | Some table ->
      fun pid (x, y) reason ->
        if not (Hashtbl.mem table (pid, x, y)) then
          Hashtbl.add table (pid, x, y) reason
  in
  (* [taint] marks a pointer-resolved derivation.  It is an OR over
     all derivations of the pair, so a pair introduced clean can
     become tainted by a later pointer-carried derivation — that is an
     event of its own, and readers re-derive from the pair with the
     taint set. *)
  let add pid ((x, y) as pair) ~taint reason =
    let fresh = not (Pair_set.mem pair alias.(pid)) in
    if fresh then begin
      record pid pair reason;
      alias.(pid) <- Pair_set.add pair alias.(pid)
    end;
    let flip = taint && (fresh || not (Pair_set.mem pair tainted.(pid))) in
    if flip then tainted.(pid) <- Pair_set.add pair tainted.(pid);
    if fresh || flip then begin
      push logs.(pid) ((x * nv) + y);
      incr events
    end
  in
  (* By-reference bindings of one site, built once.  A dereference
     actual [*...*p] binds the cell the dereference may name, so it
     expands to one binding per variable in the points-to projection —
     flagged so the provenance reason says so. *)
  let site_state (s : Prog.site) =
    let callee = Prog.proc prog s.Prog.callee in
    let acc = ref [] in
    Array.iteri
      (fun i arg ->
        let formal = callee.Prog.formals.(i) in
        match arg with
        | Prog.Arg_value _ -> ()
        | Prog.Arg_ref (Expr.Lderef (p, d)) ->
          List.iter
            (fun base -> acc := { pos = i; formal; base; ptr = true } :: !acc)
            (deref p d)
        | Prog.Arg_ref lv ->
          acc := { pos = i; formal; base = Expr.lvalue_base lv; ptr = false } :: !acc)
      s.Prog.args;
    let bindings = Array.of_list (List.rev !acc) in
    let by_base = Array.copy bindings in
    Array.stable_sort (fun a b -> Int.compare a.base b.base) by_base;
    { site = s; bindings; by_base; seen = 0 }
  in
  let sites = Array.map site_state prog.Prog.sites in
  (* Introduction: same base (or same may-named cell) at two
     positions; visible base.  Bindings never change, so this runs on
     a site's first visit only. *)
  let introduce st =
    let callee = st.site.Prog.callee in
    let sid = st.site.Prog.sid in
    Array.iter
      (fun bi ->
        iter_group st.by_base bi.base (fun bj ->
            if bi.pos < bj.pos then
              add callee (norm bi.formal bj.formal) ~taint:(bi.ptr || bj.ptr)
                (if bi.ptr then Provenance.Apointsto { site = sid; pos = bi.pos }
                 else if bj.ptr then Provenance.Apointsto { site = sid; pos = bj.pos }
                 else Provenance.Apositions { site = sid; pos_i = bi.pos; pos_j = bj.pos }));
        (* [formal = base] only at a direct recursive call passing a
           formal to itself — a reflexive "pair" no consumer treats as
           an alias ([may_alias] is irreflexive), so never introduce
           one. *)
        if bi.base <> bi.formal && Prog.visible prog ~proc:callee ~var:bi.base then
          add callee (norm bi.formal bi.base) ~taint:bi.ptr
            (if bi.ptr then Provenance.Apointsto { site = sid; pos = bi.pos }
             else Provenance.Avisible { site = sid; pos = bi.pos }))
      st.bindings
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
    iter_slice log ~from:st.seen ~upto (fun e ->
        incr visits;
        let x = e / nv and y = e mod nv in
        let reason = Provenance.Apropagated { site = sid; from_pair = (x, y) } in
        let t0 = Pair_set.mem (x, y) tainted.(caller) in
        let through bi other =
          iter_group st.by_base other (fun bj ->
              if bj.formal <> bi.formal then
                add callee (norm bi.formal bj.formal) ~taint:(t0 || bi.ptr || bj.ptr)
                  reason);
          if other <> bi.formal && Prog.visible prog ~proc:callee ~var:other then
            add callee (norm bi.formal other) ~taint:(t0 || bi.ptr) reason
        in
        iter_group st.by_base x (fun bi -> through bi y);
        iter_group st.by_base y (fun bi -> through bi x));
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
        iter_slice log ~from:c.inherited ~upto (fun e ->
            incr visits;
            let pair = (e / nv, e mod nv) in
            add c.child pair
              ~taint:(Pair_set.mem pair tainted.(c.parent))
              (Provenance.Ainherited { parent = c.parent }));
        c.inherited <- upto)
      children
  in
  (* Pointer-induced pairs the binding expansion cannot express —
     two dereference actuals overlapping only through a heap summary
     location — enter as seeds and close under propagation and
     inheritance like any other pair. *)
  List.iter
    (fun (pid, (x, y), site, pos) ->
      if x <> y then
        add pid (norm x y) ~taint:true (Provenance.Apointsto { site; pos }))
    seeds;
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
  Obs.Metric.set pairs_metric
    (Array.fold_left (fun acc s -> acc + Pair_set.cardinal s) 0 alias);
  { info; alias; tainted }

let pairs t pid = Pair_set.elements t.alias.(pid)

let pointer_tainted t ~proc (x, y) = Pair_set.mem (norm x y) t.tainted.(proc)

let aliases_of t ~proc ~var =
  Pair_set.fold
    (fun (x, y) acc ->
      if x = var then y :: acc else if y = var then x :: acc else acc)
    t.alias.(proc) []
  |> List.sort_uniq compare

let may_alias t ~proc x y = x <> y && Pair_set.mem (norm x y) t.alias.(proc)

let close t ~proc set =
  let result = Bitvec.copy set in
  Pair_set.iter
    (fun (x, y) ->
      if Bitvec.get set x then Bitvec.set result y;
      if Bitvec.get set y then Bitvec.set result x)
    t.alias.(proc);
  result

let total_pairs t = Array.fold_left (fun acc s -> acc + Pair_set.cardinal s) 0 t.alias

let pp prog ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun pid set ->
      if not (Pair_set.is_empty set) then
        Format.fprintf ppf "ALIAS(%s) = {%a}@,"
          (Prog.proc prog pid).Prog.pname
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
             (fun ppf (x, y) ->
               Format.fprintf ppf "<%s, %s>" (Prog.var prog x).Prog.vname
                 (Prog.var prog y).Prog.vname))
          (Pair_set.elements set))
    t.alias;
  Format.fprintf ppf "@]"
