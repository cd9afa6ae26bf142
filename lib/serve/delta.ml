type row = string * string list * string list

let set_names prog set =
  List.map (Ir.Pp.qualified_var_name prog) (Bitvec.to_list set)
  |> List.sort_uniq compare

(* Every variable's qualified name, rendered once per program, and
   each vid's rank in name order: a set's sorted names come from
   sorting its ranks, with no string rendered or compared per set. *)
type names = { by_rank : string array; rank : int array }

let names prog =
  let name = Array.init (Ir.Prog.n_vars prog) (Ir.Pp.qualified_var_name prog) in
  let order = Array.init (Array.length name) Fun.id in
  Array.stable_sort (fun a b -> String.compare name.(a) name.(b)) order;
  let rank = Array.make (Array.length name) 0 in
  Array.iteri (fun r vid -> rank.(vid) <- r) order;
  { by_rank = Array.map (Array.get name) order; rank }

(* [set_names] over a precomputed table; equal names sit side by side
   in rank order, so deduplication keeps one of each run. *)
let sorted_names n set =
  let ranks = ref [] in
  Bitvec.iter_uncounted (fun vid -> ranks := n.rank.(vid) :: !ranks) set;
  List.fold_left
    (fun acc r ->
      match acc with
      | s :: _ when String.equal s n.by_rank.(r) -> acc
      | _ -> n.by_rank.(r) :: acc)
    []
    (List.sort (fun a b -> Int.compare b a) !ranks)

type snapshot = {
  smod : (string, string list) Hashtbl.t;
  suse : (string, string list) Hashtbl.t;
}

let snapshot (t : Core.Analyze.t) =
  let prog = t.Core.Analyze.prog in
  let n = names prog in
  let capture sets =
    let table = Hashtbl.create 16 in
    Ir.Prog.iter_procs prog (fun p ->
        Hashtbl.replace table p.Ir.Prog.pname (sorted_names n sets.(p.Ir.Prog.pid)));
    table
  in
  { smod = capture t.Core.Analyze.gmod; suse = capture t.Core.Analyze.guse }

(* Both lists sorted and deduplicated: one merge pass. *)
let diff before after =
  let rec go before after added removed =
    match (before, after) with
    | [], rest -> (List.rev_append added rest, List.rev removed)
    | rest, [] -> (List.rev added, List.rev_append removed rest)
    | b :: bs, a :: as_ ->
      let c = String.compare b a in
      if c = 0 then go bs as_ added removed
      else if c < 0 then go bs after added (b :: removed)
      else go before as_ (a :: added) removed
  in
  go before after [] []

let rows snap (ta : Core.Analyze.t) =
  let prog = ta.Core.Analyze.prog in
  let n = names prog in
  let side before project =
    let rows = ref [] in
    Ir.Prog.iter_procs prog (fun p ->
        let after = sorted_names n project.(p.Ir.Prog.pid) in
        let old =
          Option.value ~default:[] (Hashtbl.find_opt before p.Ir.Prog.pname)
        in
        let added, removed = diff old after in
        if added <> [] || removed <> [] then
          rows := (p.Ir.Prog.pname, added, removed) :: !rows);
    Hashtbl.iter
      (fun name old ->
        if Ir.Prog.find_proc prog name = None && old <> [] then
          rows := (name, [], old) :: !rows)
      before;
    List.sort compare !rows
  in
  (side snap.smod ta.Core.Analyze.gmod, side snap.suse ta.Core.Analyze.guse)

let pp_rows ~title ppf rows =
  Format.fprintf ppf "== %s delta ==@." title;
  if rows = [] then Format.fprintf ppf "  (none)@."
  else
    List.iter
      (fun (name, added, removed) ->
        Format.fprintf ppf "  %-12s" name;
        if added <> [] then Format.fprintf ppf " +{%s}" (String.concat "," added);
        if removed <> [] then
          Format.fprintf ppf " -{%s}" (String.concat "," removed);
        Format.fprintf ppf "@.")
      rows

let rows_json rows =
  Obs.Json.List
    (List.map
       (fun (name, added, removed) ->
         Obs.Json.Obj
           [
             ("proc", Obs.Json.String name);
             ( "added",
               Obs.Json.List (List.map (fun s -> Obs.Json.String s) added) );
             ( "removed",
               Obs.Json.List (List.map (fun s -> Obs.Json.String s) removed) );
           ])
       rows)

let lint_fields = function
  | None -> []
  | Some (added, removed) ->
    [
      ("lint_added", Obs.Json.List (List.map Lint.Diagnostic.to_json added));
      ("lint_removed", Obs.Json.List (List.map Lint.Diagnostic.to_json removed));
    ]
