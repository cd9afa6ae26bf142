(* Witness reconstruction.  See explain.mli. *)

module Prog = Ir.Prog
module Binding = Callgraph.Binding
module Digraph = Graphs.Digraph
module Locs = Frontend.Locs
module Loc = Frontend.Loc

type side = [ `Mod | `Use ]

type gmod_step = { proc : int; reason : Provenance.gmod_reason }
type rmod_step = { node : int; reason : Provenance.rmod_reason }

type alias_link = {
  aproc : int;
  pair : int * int;
  reason : Provenance.alias_reason;
}

(* One link of a MUSTMOD chain: why [mvar ∈ MUSTMOD(mproc)].  An
   [Mcall {site; pre}] reason continues at [site]'s callee with the
   callee-side variable [pre]; [Mdef] is terminal. *)
type must_step = { mproc : int; mvar : int; reason : Provenance.must_reason }

let gset (a : Analyze.t) side =
  match side with `Mod -> a.Analyze.gmod | `Use -> a.Analyze.guse

let gname side = match side with `Mod -> "GMOD" | `Use -> "GUSE"
let rname side = match side with `Mod -> "RMOD" | `Use -> "RUSE"
let verb side = match side with `Mod -> "writes" | `Use -> "reads"

(* --- structured chains ------------------------------------------------ *)

let gmod_chain (a : Analyze.t) ~side ~proc ~var =
  match Analyze.provenance_forest a with
  | None -> None
  | Some p ->
    if not (Bitvec.get (gset a side).(proc) var) then None
    else begin
      let table = Provenance.gmod_reasons p ~side in
      let prog = a.Analyze.prog in
      let rec go pid acc seen =
        if List.mem pid seen then Some (List.rev acc)
        else
          match Hashtbl.find_opt table (pid, var) with
          | None -> None
          | Some reason -> (
            let acc = { proc = pid; reason } :: acc in
            match reason with
            | Provenance.Gcall sid ->
              go (Prog.site prog sid).Prog.callee acc (pid :: seen)
            | Provenance.Gnested child -> go child acc (pid :: seen)
            | Provenance.Glocal | Provenance.Gbind _ -> Some (List.rev acc))
      in
      go proc [] []
    end

let rmod_chain (a : Analyze.t) ~side ~var =
  match Analyze.provenance_forest a with
  | None -> None
  | Some p -> (
    let binding = a.Analyze.binding in
    match Binding.node_opt binding var with
    | None -> None
    | Some node0 ->
      let reasons = Provenance.rmod_reasons p ~side in
      let g = binding.Binding.graph in
      let rec go node acc seen =
        if List.mem node seen then Some (List.rev acc)
        else
          match reasons.(node) with
          | None -> None
          | Some (Provenance.Rseed as reason) ->
            Some (List.rev ({ node; reason } :: acc))
          | Some (Provenance.Redge eid as reason) ->
            go (Digraph.edge_dst g eid) ({ node; reason } :: acc) (node :: seen)
      in
      go node0 [] [])

let alias_links (a : Analyze.t) ~proc x y =
  match Analyze.provenance_forest a with
  | None -> None
  | Some p ->
    let prog = a.Analyze.prog in
    let links = ref [] in
    let seen = Hashtbl.create 16 in
    let rec go pid (x, y) =
      let x, y = if x <= y then (x, y) else (y, x) in
      if not (Hashtbl.mem seen (pid, x, y)) then begin
        Hashtbl.add seen (pid, x, y) ();
        match Provenance.alias_reason p ~proc:pid x y with
        | None -> ()
        | Some reason ->
          links := { aproc = pid; pair = (x, y); reason } :: !links;
          (match reason with
          | Provenance.Apropagated { site; from_pair } ->
            go (Prog.site prog site).Prog.caller from_pair
          | Provenance.Ainherited { parent } -> go parent (x, y)
          | Provenance.Apositions _ | Provenance.Avisible _
          | Provenance.Apointsto _ ->
            ())
      end
    in
    go proc (x, y);
    (match Provenance.alias_reason p ~proc x y with
    | None -> None
    | Some _ -> Some (List.rev !links))

(* --- rendering -------------------------------------------------------- *)

let vname prog vid = Ir.Pp.var_name prog vid
let qvname prog vid = Ir.Pp.qualified_var_name prog vid
let pname prog pid = Ir.Pp.proc_name prog pid

(* How a fact about [proc] names a variable: by its bare name where that
   resolves to it in [proc]'s scope, and as [owner.var] elsewhere — a
   dereference can reach another procedure's local. *)
let fact_vname prog ~proc vid =
  match Prog.find_var prog ~proc (vname prog vid) with
  | Some v when v.Prog.vid = vid -> vname prog vid
  | Some _ | None -> qvname prog vid

let loc_suffix loc =
  if loc = Loc.dummy then "" else Printf.sprintf " at %s" (Loc.to_string loc)

let site_loc locs sid = Locs.site locs sid

(* First statement of [proc]'s own body — else of a lexical descendant
   — whose direct effect touches [var]. *)
let find_def (a : Analyze.t) ~side ~proc ~var =
  let prog = a.Analyze.prog in
  let per_stmt =
    match side with
    | `Mod -> Frontend.Local.lmod_stmt
    | `Use -> Frontend.Local.luse_stmt
  in
  let in_body pid =
    let ord = ref (-1) in
    let found = ref None in
    Ir.Stmt.iter
      (fun s ->
        incr ord;
        if !found = None && List.mem var (per_stmt a.Analyze.info s) then
          found := Some !ord)
      (Prog.proc prog pid).Prog.body;
    !found
  in
  let rec search pid =
    match in_body pid with
    | Some ord -> Some (pid, ord)
    | None ->
      List.fold_left
        (fun acc child -> match acc with Some _ -> acc | None -> search child)
        None (Prog.proc prog pid).Prog.nested
  in
  search proc

let def_line a ~locs ~side ~proc ~var =
  let prog = a.Analyze.prog in
  match find_def a ~side ~proc ~var with
  | Some (pid, ord) ->
    Printf.sprintf "%s %s '%s'%s" (pname prog pid) (verb side)
      (fact_vname prog ~proc:pid var)
      (loc_suffix (Locs.stmt locs ~proc:pid ord))
  | None ->
    (* Defensive: the fact held, so a def-site should exist. *)
    Printf.sprintf "%s %s '%s'" (pname prog proc) (verb side)
      (fact_vname prog ~proc var)

let rmod_lines (a : Analyze.t) ~locs ~side steps =
  let prog = a.Analyze.prog in
  let binding = a.Analyze.binding in
  List.concat_map
    (fun { node; reason } ->
      let f = Binding.var binding node in
      match reason with
      | Provenance.Rseed ->
        let owner =
          match (Prog.var prog f).Prog.kind with
          | Prog.Formal { proc; _ } -> proc
          | _ -> assert false
        in
        [ def_line a ~locs ~side ~proc:owner ~var:f ]
      | Provenance.Redge eid ->
        let info = binding.Binding.edges.(eid) in
        let dst = Digraph.edge_dst binding.Binding.graph eid in
        let fdst = Binding.var binding dst in
        [
          Printf.sprintf "'%s' is bound by reference to '%s' at site %d (arg %d)%s"
            (qvname prog f) (qvname prog fdst) info.Binding.site
            info.Binding.arg_pos
            (loc_suffix (site_loc locs info.Binding.site));
        ])
    steps

let explain_rmod (a : Analyze.t) ~locs ~side ~var =
  match rmod_chain a ~side ~var with
  | None -> None
  | Some steps ->
    let prog = a.Analyze.prog in
    let head =
      Printf.sprintf "'%s' ∈ %s" (qvname prog var) (rname side)
    in
    Some (head :: rmod_lines a ~locs ~side steps)

let explain_gmod (a : Analyze.t) ~locs ~side ~proc ~var =
  match gmod_chain a ~side ~proc ~var with
  | None -> None
  | Some steps ->
    let prog = a.Analyze.prog in
    (* Compact arrow chain: p →site 3 q ⊃ r … *)
    let buf = Buffer.create 64 in
    Buffer.add_string buf (pname prog proc);
    List.iter
      (fun ({ reason; _ } : gmod_step) ->
        match reason with
        | Provenance.Gcall sid ->
          Buffer.add_string buf
            (Printf.sprintf " →site %d %s" sid
               (pname prog (Prog.site prog sid).Prog.callee))
        | Provenance.Gnested child ->
          Buffer.add_string buf (Printf.sprintf " ⊃ %s" (pname prog child))
        | Provenance.Glocal | Provenance.Gbind _ -> ())
      steps;
    let chain_line =
      Printf.sprintf "'%s' ∈ %s(%s): %s" (fact_vname prog ~proc var) (gname side)
        (pname prog proc) (Buffer.contents buf)
    in
    let step_lines =
      List.concat_map
        (fun { proc = pid; reason } ->
          match reason with
          | Provenance.Glocal -> [ def_line a ~locs ~side ~proc:pid ~var ]
          | Provenance.Gcall sid ->
            let callee = (Prog.site prog sid).Prog.callee in
            [
              Printf.sprintf "%s calls %s at site %d%s; '%s' ∈ %s(%s) and is not local to %s"
                (pname prog pid) (pname prog callee) sid
                (loc_suffix (site_loc locs sid))
                (fact_vname prog ~proc:callee var)
                (gname side) (pname prog callee) (pname prog callee);
            ]
          | Provenance.Gnested child ->
            [
              Printf.sprintf "'%s' escapes from %s, declared inside %s"
                (fact_vname prog ~proc:pid var)
                (pname prog child) (pname prog pid);
            ]
          | Provenance.Gbind { site; arg_pos } ->
            let s = Prog.site prog site in
            let callee = Prog.proc prog s.Prog.callee in
            let f = callee.Prog.formals.(arg_pos) in
            let bind_line =
              Printf.sprintf
                "%s passes '%s' by reference at site %d (arg %d)%s, binding '%s'; '%s' ∈ %s"
                (pname prog pid) (fact_vname prog ~proc:pid var) site arg_pos
                (loc_suffix (site_loc locs site))
                (qvname prog f) (qvname prog f) (rname side)
            in
            let tail =
              match rmod_chain a ~side ~var:f with
              | Some steps -> rmod_lines a ~locs ~side steps
              | None -> []
            in
            bind_line :: tail)
        steps
    in
    Some (chain_line :: step_lines)

(* Each [Mcall] step is single-step evidence — one contributing call
   site, not a proof that every path goes through it (the set
   membership itself certifies the every-path property). *)
let must_chain (a : Analyze.t) ~proc ~var =
  match Analyze.provenance_forest a with
  | None -> None
  | Some p ->
    if not (Bitvec.get (Mustmod.mustmod_of a.Analyze.mustmod proc) var) then
      None
    else begin
      let prog = a.Analyze.prog in
      let rec go pid vid acc seen =
        if List.mem (pid, vid) seen then Some (List.rev acc)
        else
          match Provenance.must_reason_of p ~proc:pid vid with
          | None -> None
          | Some (Provenance.Mdef as reason) ->
            Some (List.rev ({ mproc = pid; mvar = vid; reason } :: acc))
          | Some (Provenance.Mcall { site; pre } as reason) ->
            go
              (Prog.site prog site).Prog.callee
              pre
              ({ mproc = pid; mvar = vid; reason } :: acc)
              ((pid, vid) :: seen)
      in
      go proc var [] []
    end

let explain_must (a : Analyze.t) ~locs ~proc ~var =
  match must_chain a ~proc ~var with
  | None -> None
  | Some steps ->
    let prog = a.Analyze.prog in
    (* Compact arrow chain, like GMOD's: p →site 3 q … *)
    let buf = Buffer.create 64 in
    Buffer.add_string buf (pname prog proc);
    List.iter
      (fun ({ reason; _ } : must_step) ->
        match reason with
        | Provenance.Mcall { site; _ } ->
          Buffer.add_string buf
            (Printf.sprintf " →site %d %s" site
               (pname prog (Prog.site prog site).Prog.callee))
        | Provenance.Mdef -> ())
      steps;
    let chain_line =
      Printf.sprintf "'%s' ∈ MUSTMOD(%s): %s" (fact_vname prog ~proc var)
        (pname prog proc) (Buffer.contents buf)
    in
    let step_lines =
      List.concat_map
        (fun { mproc = pid; mvar = vid; reason } ->
          match reason with
          | Provenance.Mdef ->
            [
              (match find_def a ~side:`Mod ~proc:pid ~var:vid with
              | Some (dp, ord) ->
                Printf.sprintf "%s writes '%s' on every path to exit%s"
                  (pname prog dp)
                  (fact_vname prog ~proc:dp vid)
                  (loc_suffix (Locs.stmt locs ~proc:dp ord))
              | None ->
                Printf.sprintf "%s writes '%s' on every path to exit"
                  (pname prog pid)
                  (fact_vname prog ~proc:pid vid));
            ]
          | Provenance.Mcall { site; pre } ->
            let callee = (Prog.site prog site).Prog.callee in
            [
              Printf.sprintf
                "%s calls %s at site %d%s; '%s' ∈ MUSTMOD(%s) lands on '%s'"
                (pname prog pid) (pname prog callee) site
                (loc_suffix (site_loc locs site))
                (qvname prog pre) (pname prog callee)
                (fact_vname prog ~proc:pid vid);
            ])
        steps
    in
    Some (chain_line :: step_lines)

let alias_link_lines (a : Analyze.t) ~locs links =
  let prog = a.Analyze.prog in
  List.map
    (fun { aproc; pair = (x, y); reason } ->
      let pair_str =
        Printf.sprintf "<%s, %s>"
          (fact_vname prog ~proc:aproc x)
          (fact_vname prog ~proc:aproc y)
      in
      match reason with
      | Provenance.Apositions { site; pos_i; pos_j } ->
        let s = Prog.site prog site in
        let base =
          match s.Prog.args.(pos_i) with
          | Prog.Arg_ref lv -> Ir.Expr.lvalue_base lv
          | Prog.Arg_value _ -> x
        in
        Printf.sprintf
          "%s in %s: '%s' is passed by reference at both args %d and %d of site %d%s"
          pair_str (pname prog aproc) (vname prog base) pos_i pos_j site
          (loc_suffix (site_loc locs site))
      | Provenance.Avisible { site; pos } ->
        let f = (Prog.proc prog aproc).Prog.formals.(pos) in
        let b = if f = x then y else x in
        Printf.sprintf
          "%s in %s: '%s', still visible inside %s, is passed by reference at arg %d of site %d%s"
          pair_str (pname prog aproc) (vname prog b) (pname prog aproc) pos
          site
          (loc_suffix (site_loc locs site))
      | Provenance.Apropagated { site; from_pair = (fx, fy) } ->
        Printf.sprintf
          "%s in %s: pair <%s, %s> holding in %s flows through the bindings of site %d%s"
          pair_str (pname prog aproc) (vname prog fx) (vname prog fy)
          (pname prog (Prog.site prog site).Prog.caller)
          site
          (loc_suffix (site_loc locs site))
      | Provenance.Ainherited { parent } ->
        Printf.sprintf "%s in %s: inherited from lexical parent %s" pair_str
          (pname prog aproc) (pname prog parent)
      | Provenance.Apointsto { site; pos } ->
        let s = Prog.site prog site in
        let actual =
          match s.Prog.args.(pos) with
          | Prog.Arg_ref lv -> Fmt.to_to_string (Ir.Pp.pp_lvalue prog) lv
          | Prog.Arg_value _ -> "?"
        in
        Printf.sprintf
          "%s in %s: the dereference actual '%s' at arg %d of site %d may \
           name the paired cell (points-to projection)%s"
          pair_str (pname prog aproc) actual pos site
          (loc_suffix (site_loc locs site)))
    links

let explain_alias (a : Analyze.t) ~locs ~proc x y =
  match alias_links a ~proc x y with
  | None -> None
  | Some links ->
    let prog = a.Analyze.prog in
    let head =
      Printf.sprintf "<%s, %s> ∈ ALIAS(%s)"
        (fact_vname prog ~proc (min x y))
        (fact_vname prog ~proc (max x y))
        (pname prog proc)
    in
    Some (head :: alias_link_lines a ~locs links)

(* --- the fact grammar --- *)

type fact =
  | Fglobal of side * string * string
  | Fmust of string * string
  | Fref of side * string * string
  | Falias of string * string * string
  | Fdiag of string * string option

let parse_fact s =
  match String.split_on_char ':' s with
  | [ "gmod"; p; v ] -> Ok (Fglobal (`Mod, p, v))
  | [ "guse"; p; v ] -> Ok (Fglobal (`Use, p, v))
  | [ "must"; p; v ] -> Ok (Fmust (p, v))
  | [ "rmod"; p; f ] -> Ok (Fref (`Mod, p, f))
  | [ "ruse"; p; f ] -> Ok (Fref (`Use, p, f))
  | [ "alias"; p; x; y ] -> Ok (Falias (p, x, y))
  | [ "diag"; code ] -> Ok (Fdiag (code, None))
  | "diag" :: code :: rest -> Ok (Fdiag (code, Some (String.concat ":" rest)))
  | _ ->
    Error
      (Printf.sprintf
         "unrecognised fact '%s' (expected gmod:P:V | guse:P:V | must:P:V | \
          rmod:P:F | ruse:P:F | alias:P:X:Y | diag:CODE[:FILTER])"
         s)

(* --- resolution and enumeration --- *)

let resolve_proc prog name =
  match Prog.find_proc prog name with
  | Some p -> Ok p.Prog.pid
  | None -> Error (Printf.sprintf "unknown procedure '%s'" name)

(* A bare name resolves in [proc]'s scope; [owner.var] names a variable
   its owner declares, in scope or not — a dereference can reach
   another procedure's local. *)
let resolve_var prog ~proc name =
  let owned =
    match String.index_opt name '.' with
    | None -> None
    | Some i -> (
      let owner = String.sub name 0 i in
      let var = String.sub name (i + 1) (String.length name - i - 1) in
      match Prog.find_proc prog owner with
      | None -> None
      | Some o -> (
        match Prog.find_var prog ~proc:o.Prog.pid var with
        | Some v when Prog.var_owner v = Some o.Prog.pid -> Some v
        | Some _ | None -> None))
  in
  match (Prog.find_var prog ~proc name, owned) with
  | Some v, _ | None, Some v -> Ok v.Prog.vid
  | None, None ->
    Error
      (Printf.sprintf "unknown variable '%s' in scope of '%s'" name
         (Prog.proc prog proc).Prog.pname)

let fact_witness (a : Analyze.t) ~locs fact =
  let ( let* ) = Result.bind in
  let prog = a.Analyze.prog in
  (* Resolve the procedure, then hand [k] a resolver for names in its
     scope; names resolve left to right, so the first unknown one is
     the one reported. *)
  let in_proc p k =
    let* pid = resolve_proc prog p in
    k pid (resolve_var prog ~proc:pid)
  in
  match fact with
  | Fglobal (side, p, v) ->
    in_proc p (fun proc var ->
        Result.map (fun var -> explain_gmod a ~locs ~side ~proc ~var) (var v))
  | Fmust (p, v) ->
    in_proc p (fun proc var ->
        Result.map (fun var -> explain_must a ~locs ~proc ~var) (var v))
  | Fref (side, p, f) ->
    in_proc p (fun _ var ->
        Result.map (fun var -> explain_rmod a ~locs ~side ~var) (var f))
  | Falias (p, x, y) ->
    in_proc p (fun proc var ->
        let* x = var x in
        let* y = var y in
        Ok (explain_alias a ~locs ~proc x y))
  | Fdiag _ -> invalid_arg "Explain.fact_witness: diag facts name lint findings"

(* The enumeration order is the output order of [explain --all]: per
   procedure its GMOD, GUSE, MUSTMOD and alias facts, then the set
   RMOD/RUSE by-reference formals in variable order. *)
let all_facts (a : Analyze.t) ~locs =
  let prog = a.Analyze.prog in
  let name = fact_vname prog in
  let facts = ref [] in
  let push fact lines = facts := (fact, lines) :: !facts in
  Prog.iter_procs prog (fun pr ->
      let pid = pr.Prog.pid in
      let pn = pr.Prog.pname in
      List.iter
        (fun (label, side) ->
          List.iter
            (fun vid ->
              push
                (Printf.sprintf "%s:%s:%s" label pn (name ~proc:pid vid))
                (explain_gmod a ~locs ~side ~proc:pid ~var:vid))
            (Bitvec.to_list (gset a side).(pid)))
        [ ("gmod", `Mod); ("guse", `Use) ];
      List.iter
        (fun vid ->
          push
            (Printf.sprintf "must:%s:%s" pn (name ~proc:pid vid))
            (explain_must a ~locs ~proc:pid ~var:vid))
        (Bitvec.to_list (Mustmod.mustmod_of a.Analyze.mustmod pid));
      List.iter
        (fun (x, y) ->
          push
            (Printf.sprintf "alias:%s:%s:%s" pn (name ~proc:pid x)
               (name ~proc:pid y))
            (explain_alias a ~locs ~proc:pid x y))
        (Alias.pairs a.Analyze.alias pid));
  Prog.iter_vars prog (fun v ->
      match v.Prog.kind with
      | Prog.Formal { proc; mode = Prog.By_ref; _ } ->
        let pn = (Prog.proc prog proc).Prog.pname in
        List.iter
          (fun (label, side, r) ->
            if Rmod.modified r v.Prog.vid then
              push
                (Printf.sprintf "%s:%s:%s" label pn v.Prog.vname)
                (explain_rmod a ~locs ~side ~var:v.Prog.vid))
          [ ("rmod", `Mod, a.Analyze.rmod); ("ruse", `Use, a.Analyze.ruse) ]
      | Prog.Formal _ | Prog.Local _ | Prog.Global -> ());
  List.rev !facts

let fact_json (fact, lines) =
  Obs.Json.Obj
    [
      ("fact", Obs.Json.String fact);
      ( "witness",
        match lines with
        | None -> Obs.Json.Null
        | Some ls -> Obs.Json.List (List.map (fun l -> Obs.Json.String l) ls) );
    ]
