type param_mode = By_ref | By_value

type var_kind =
  | Global
  | Local of int
  | Formal of { proc : int; index : int; mode : param_mode }

type var = {
  vid : int;
  vname : string;
  vty : Types.t;
  kind : var_kind;
}

type arg =
  | Arg_ref of Expr.lvalue
  | Arg_value of Expr.t

type site = {
  sid : int;
  caller : int;
  callee : int;
  args : arg array;
}

type proc = {
  pid : int;
  pname : string;
  parent : int option;
  level : int;
  formals : int array;
  locals : int list;
  nested : int list;
  body : Stmt.t list;
}

type t = {
  name : string;
  vars : var array;
  procs : proc array;
  sites : site array;
  main : int;
}

let n_vars p = Array.length p.vars
let n_procs p = Array.length p.procs
let n_sites p = Array.length p.sites

let var p vid = p.vars.(vid)
let proc p pid = p.procs.(pid)
let site p sid = p.sites.(sid)

let var_owner v =
  match v.kind with
  | Global -> None
  | Local pid -> Some pid
  | Formal { proc; _ } -> Some proc

let is_global v =
  match v.kind with
  | Global -> true
  | Local _ | Formal _ -> false

let is_ref_formal v =
  match v.kind with
  | Formal { mode = By_ref; _ } -> true
  | Formal { mode = By_value; _ } | Global | Local _ -> false

let formal_mode p pr i =
  match (var p pr.formals.(i)).kind with
  | Formal { mode; _ } -> mode
  | Global | Local _ -> invalid_arg "Prog.formal_mode: formal table corrupt"

let owner_level p v =
  match var_owner v with
  | None -> 0
  | Some pid -> (proc p pid).level

let ancestors p pid =
  let rec up pid acc =
    match (proc p pid).parent with
    | None -> List.rev (pid :: acc)
    | Some parent -> up parent (pid :: acc)
  in
  up pid []

let is_ancestor p ~anc ~desc =
  let rec up pid =
    pid = anc
    ||
    match (proc p pid).parent with
    | None -> false
    | Some parent -> up parent
  in
  up desc

let callable p ~caller ~callee =
  match (proc p callee).parent with
  | Some parent -> is_ancestor p ~anc:parent ~desc:caller
  | None -> false

let visible p ~proc:pid ~var:vid =
  match (var p vid).kind with
  | Global -> true
  | Local owner | Formal { proc = owner; _ } -> is_ancestor p ~anc:owner ~desc:pid

let iter_procs p f = Array.iter f p.procs
let iter_sites p f = Array.iter f p.sites
let iter_vars p f = Array.iter f p.vars

let sites_of p pid =
  Array.fold_right (fun s acc -> if s.caller = pid then s :: acc else acc) p.sites []

let max_level p = Array.fold_left (fun acc pr -> max acc pr.level) 0 p.procs

let find_proc p name =
  Array.fold_left
    (fun acc pr ->
      match acc with
      | Some _ -> acc
      | None -> if String.equal pr.pname name then Some pr else None)
    None p.procs

let find_var p ~proc:pid name =
  let declared_in pr =
    let here vid = String.equal (var p vid).vname name in
    match List.find_opt here (Array.to_list pr.formals @ pr.locals) with
    | Some vid -> Some (var p vid)
    | None -> None
  in
  let rec walk pid =
    let pr = proc p pid in
    match declared_in pr with
    | Some v -> Some v
    | None -> (
      match pr.parent with
      | Some parent -> walk parent
      | None ->
        (* Program scope: the first global of that name. *)
        Array.find_opt (fun v -> is_global v && String.equal v.vname name) p.vars)
  in
  walk pid
