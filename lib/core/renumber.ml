(* Compact escape-universe renumbering.  See renumber.mli.

   In a flat program (no procedure nesting, [Prog.max_level <= 1]) the
   only variables equation (4) ever propagates across a call edge are
   globals: GMOD[p] ∖ LOCAL[p] ⊆ GLOBAL, because every non-global is
   local to exactly one procedure and visible nowhere else.  So the
   Figure-2 fold can run over vectors indexed by a renumbered compact
   universe — the globals that actually occur in some seed — instead
   of the full variable universe.  Three structural wins:

   - the [∖ LOCAL] strip becomes implicit (locals are simply not in
     the universe), turning the three-op escape fold into one union;
   - per-procedure seed bits at high variable ids (each procedure's
     own formals/locals) no longer inflate the occupied prefix of
     promoted dense vectors — compact sets stay compact;
   - the compact universe is usually far smaller than [n_vars], so
     even fully-saturated summary sets cost G/word words per fold, the
     information floor.

   Compact ids are assigned in first-touch order scanning procedures
   ascending and seed bits ascending — deterministic and independent
   of any schedule, which is what keeps inline and pooled solves
   op-count-identical. *)

type t = {
  n_compact : int;
  of_compact : int array;
  compact_seeds : Bitvec.t array;
}

let n_compact t = t.n_compact
let of_compact t c = t.of_compact.(c)

let build info ~seed =
  let nv = Ir.Info.n_vars info in
  let n = Array.length seed in
  let to_compact = Array.make nv (-1) in
  let rev_order = ref [] in
  let count = ref 0 in
  (* Per-proc compact members, collected during the same counted scan
     that discovers the universe (the [iter] is the honest read of the
     seed; vector construction below reuses the cached lists). *)
  let members = Array.make n [] in
  for p = 0 to n - 1 do
    let mine = ref [] in
    Bitvec.iter
      (fun v ->
        if Ir.Info.var_level info v = 0 then begin
          if to_compact.(v) < 0 then begin
            to_compact.(v) <- !count;
            rev_order := v :: !rev_order;
            incr count
          end;
          mine := to_compact.(v) :: !mine
        end)
      seed.(p);
    members.(p) <- !mine
  done;
  let n_compact = !count in
  let of_compact = Array.make (max 1 n_compact) 0 in
  List.iteri (fun i v -> of_compact.(n_compact - 1 - i) <- v) !rev_order;
  let compact_seeds =
    Array.map (fun cs -> Bitvec.of_list n_compact (List.rev cs)) members
  in
  { n_compact; of_compact; compact_seeds }

let compact_seeds t = t.compact_seeds

let expand t ~base ~compact =
  Array.init (Array.length base) (fun p ->
      let out = Bitvec.copy base.(p) in
      Bitvec.iter (fun c -> Bitvec.set out t.of_compact.(c)) compact.(p);
      out)
