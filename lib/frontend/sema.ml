type error = {
  loc : Loc.t;
  msg : string;
}

let pp_error ppf e = Format.fprintf ppf "%a: %s" Loc.pp e.loc e.msg

module Types = Ir.Types

(* The names visible from a procedure body: one table per enclosing
   scope, innermost first, so an inner declaration shadows an outer one
   and a lookup costs one probe per nesting level.  Within a table a
   later [replace] wins. *)
type scopes = (string, int) Hashtbl.t list

let rec find_scoped (scopes : scopes) name =
  match scopes with
  | [] -> None
  | t :: outer -> (
    match Hashtbl.find_opt t name with
    | Some _ as found -> found
    | None -> find_scoped outer name)

(* Raised to abandon the current statement after recording an error;
   resolution then continues with the next statement so one pass can
   report many diagnostics. *)
exception Bail

type ctx = {
  mutable errors : error list;
  mutable vars : Ir.Prog.var list; (* reverse order *)
  mutable n_vars : int;
  mutable sites : Ir.Prog.site list; (* reverse order *)
  mutable n_sites : int;
  proc_names : (string, unit) Hashtbl.t; (* global uniqueness of procedure names *)
  (* Source positions for the Locs side table, recorded as ids are
     assigned (all reverse order; loops are (caller pid, loc) pairs in
     statement pre-order per procedure). *)
  mutable var_locs : Loc.t list;
  mutable site_locs : Loc.t list;
  mutable loop_locs : (int * Loc.t) list;
  mutable stmt_locs : (int * Loc.t) list;
}

let report ctx loc fmt =
  Format.kasprintf (fun msg -> ctx.errors <- { loc; msg } :: ctx.errors) fmt

let bail ctx loc fmt =
  Format.kasprintf
    (fun msg ->
      ctx.errors <- { loc; msg } :: ctx.errors;
      raise Bail)
    fmt

let rec ty_of_ast = function
  | Ast.Ty_int -> Types.Int
  | Ast.Ty_bool -> Types.Bool
  | Ast.Ty_array dims -> Types.Array dims
  | Ast.Ty_ptr t -> Types.Ptr (ty_of_ast t)

let fresh_var ctx ~loc ~name ~ty ~kind =
  let vid = ctx.n_vars in
  ctx.n_vars <- vid + 1;
  ctx.vars <- { Ir.Prog.vid; vname = name; vty = ty; kind } :: ctx.vars;
  ctx.var_locs <- loc :: ctx.var_locs;
  vid

(* Declaration pass output, one record per procedure: everything body
   resolution will need. *)
type pending = {
  pid : int;
  pname : string;
  ploc : Loc.t;
  parent : int option;
  level : int;
  formals : int array;
  locals : int list;
  nested : int list;
  venv : scopes; (* var name -> vid, as seen from this proc's body *)
  penv : scopes; (* proc name -> pid, as seen from this proc's body *)
  body : Ast.stmt list;
}

let rec check_array_extents ctx (ty : Ast.ty) loc =
  match ty with
  | Ast.Ty_array dims ->
    if dims = [] then report ctx loc "array type needs at least one dimension";
    List.iter
      (fun d -> if d <= 0 then report ctx loc "array extent %d is not positive" d)
      dims
  | Ast.Ty_ptr (Ast.Ty_array _) ->
    report ctx loc "pointer to array types are not supported"
  | Ast.Ty_ptr t -> check_array_extents ctx t loc
  | Ast.Ty_int | Ast.Ty_bool -> ()

(* Declare the variables of one scope (formals then locals), reporting
   duplicate names within the scope.  Returns the extended venv and the
   vid lists. *)
let declare_scope ctx ~pid ~params ~decls venv =
  let scope = Hashtbl.create 8 in
  let check_dup (id : Ast.ident) =
    Hashtbl.mem scope id.Ast.name
    && begin
         report ctx id.Ast.loc "duplicate declaration of '%s' in this scope" id.Ast.name;
         true
       end
  in
  let formals =
    List.mapi
      (fun index (p : Ast.param) ->
        let ty = ty_of_ast p.Ast.p_ty in
        check_array_extents ctx p.Ast.p_ty p.Ast.p_name.Ast.loc;
        (match (p.Ast.p_mode, ty) with
        | Ir.Prog.By_value, Types.Array _ ->
          report ctx p.Ast.p_name.Ast.loc
            "array parameter '%s' must be passed by reference ('var')"
            p.Ast.p_name.Ast.name
        | (Ir.Prog.By_ref | Ir.Prog.By_value), _ -> ());
        ignore (check_dup p.Ast.p_name);
        let vid =
          fresh_var ctx ~loc:p.Ast.p_name.Ast.loc ~name:p.Ast.p_name.Ast.name ~ty
            ~kind:(Ir.Prog.Formal { proc = pid; index; mode = p.Ast.p_mode })
        in
        Hashtbl.replace scope p.Ast.p_name.Ast.name vid;
        vid)
      params
  in
  let locals =
    List.concat_map
      (fun (d : Ast.decl) ->
        let ty = ty_of_ast d.Ast.d_ty in
        List.filter_map
          (fun (id : Ast.ident) ->
            check_array_extents ctx d.Ast.d_ty id.Ast.loc;
            if check_dup id then None
            else begin
              let vid =
                fresh_var ctx ~loc:id.Ast.loc ~name:id.Ast.name ~ty
                  ~kind:(Ir.Prog.Local pid)
              in
              Hashtbl.replace scope id.Ast.name vid;
              Some vid
            end)
          d.Ast.d_names)
      decls
  in
  (Array.of_list formals, locals, scope :: venv)

(* Declare one group of sibling procedures and, recursively, their
   nested ones.  Returns the pendings in pre-order, the siblings' pids
   and [penv] extended with the siblings: what the enclosing body
   sees. *)
let rec declare_procs ctx ~next_pid ~parent ~level ~venv ~penv
    (procs : Ast.proc list) : pending list * int list * scopes =
  match procs with
  | [] -> ([], [], penv)
  | _ ->
    (* Sibling procedures are mutually visible, so extend penv with every
       sibling before descending into any of them. *)
    let assigned =
      List.map
        (fun (p : Ast.proc) ->
          let pid = !next_pid in
          incr next_pid;
          (pid, p))
        procs
    in
    let siblings = Hashtbl.create (List.length procs) in
    List.iter
      (fun (pid, (p : Ast.proc)) ->
        let name = p.Ast.proc_name.Ast.name in
        if Hashtbl.mem ctx.proc_names name then
          report ctx p.Ast.proc_name.Ast.loc
            "procedure name '%s' is already used (MiniProc procedure names are \
             globally unique)"
            name
        else Hashtbl.replace ctx.proc_names name ();
        Hashtbl.replace siblings name pid)
      assigned;
    let penv = siblings :: penv in
    let results =
      List.map
        (fun (pid, (p : Ast.proc)) ->
          let formals, locals, venv' =
            declare_scope ctx ~pid ~params:p.Ast.params ~decls:p.Ast.decls venv
          in
          let sub_pendings, child_pids, child_penv =
            declare_procs ctx ~next_pid ~parent:pid ~level:(level + 1) ~venv:venv'
              ~penv p.Ast.procs
          in
          let this =
            {
              pid;
              pname = p.Ast.proc_name.Ast.name;
              ploc = p.Ast.proc_name.Ast.loc;
              parent = Some parent;
              level = level + 1;
              formals;
              locals;
              nested = child_pids;
              venv = venv';
              penv = child_penv;
              body = p.Ast.body;
            }
          in
          (this, sub_pendings))
        assigned
    in
    let pendings = List.concat_map (fun (this, subs) -> this :: subs) results in
    let pids = List.map (fun (pid, _) -> pid) assigned in
    (pendings, pids, penv)

(* --- body resolution (pass 2) --- *)

(* Variable table snapshot for type lookups during pass 2. *)
type tables = {
  var_arr : Ir.Prog.var array;
}

let var_ty tb vid = tb.var_arr.(vid).Ir.Prog.vty

let lookup_var ctx venv (id : Ast.ident) =
  match find_scoped venv id.Ast.name with
  | Some vid -> vid
  | None -> bail ctx id.Ast.loc "unknown variable '%s'" id.Ast.name

let rec resolve_expr ctx tb venv (e : Ast.expr) : Ir.Expr.t * Types.t =
  match e with
  | Ast.Int (n, _) -> (Ir.Expr.Int n, Types.Int)
  | Ast.Bool (b, _) -> (Ir.Expr.Bool b, Types.Bool)
  | Ast.Name id ->
    let vid = lookup_var ctx venv id in
    (match var_ty tb vid with
    | Types.Array _ ->
      bail ctx id.Ast.loc "array '%s' cannot be read as a scalar" id.Ast.name
    | (Types.Int | Types.Bool | Types.Ptr _) as ty -> (Ir.Expr.Var vid, ty))
  | Ast.Index (id, idx) ->
    let vid = lookup_var ctx venv id in
    let rank = Types.rank (var_ty tb vid) in
    if rank = 0 then bail ctx id.Ast.loc "scalar '%s' cannot be indexed" id.Ast.name;
    if rank <> List.length idx then
      bail ctx id.Ast.loc "'%s' has rank %d but %d subscripts were given" id.Ast.name
        rank (List.length idx);
    let idx' = List.map (fun e -> resolve_expr_expect ctx tb venv e Types.Int) idx in
    (Ir.Expr.Index (vid, idx'), Types.Int)
  | Ast.Binop (op, l, r) ->
    let want, result =
      match op with
      | Ir.Expr.And | Ir.Expr.Or -> (Types.Bool, Types.Bool)
      | Ir.Expr.Lt | Ir.Expr.Le | Ir.Expr.Gt | Ir.Expr.Ge | Ir.Expr.Eq | Ir.Expr.Ne ->
        (Types.Int, Types.Bool)
      | Ir.Expr.Add | Ir.Expr.Sub | Ir.Expr.Mul | Ir.Expr.Div | Ir.Expr.Mod ->
        (Types.Int, Types.Int)
    in
    let l' = resolve_expr_expect ctx tb venv l want in
    let r' = resolve_expr_expect ctx tb venv r want in
    (Ir.Expr.Binop (op, l', r'), result)
  | Ast.Unop (op, e0) ->
    let want =
      match op with
      | Ir.Expr.Neg -> Types.Int
      | Ir.Expr.Not -> Types.Bool
    in
    (Ir.Expr.Unop (op, resolve_expr_expect ctx tb venv e0 want), want)
  | Ast.Addr id -> (
    let vid = lookup_var ctx venv id in
    match var_ty tb vid with
    | Types.Array _ ->
      bail ctx id.Ast.loc "cannot take the address of array '%s'" id.Ast.name
    | (Types.Int | Types.Bool | Types.Ptr _) as ty ->
      (Ir.Expr.Addr vid, Types.Ptr ty))
  | Ast.Deref (d, id) -> (
    let vid = lookup_var ctx venv id in
    let ty = var_ty tb vid in
    match Types.deref d ty with
    | Some t -> (Ir.Expr.Deref (vid, d), t)
    | None ->
      bail ctx id.Ast.loc "'%s' of type %s cannot be dereferenced %d time(s)"
        id.Ast.name (Types.to_string ty) d)
  | Ast.New (ty_ast, loc) -> (
    check_array_extents ctx ty_ast loc;
    match ty_of_ast ty_ast with
    | Types.Array _ -> bail ctx loc "cannot allocate an array with 'new'"
    | (Types.Int | Types.Bool | Types.Ptr _) as ty ->
      (Ir.Expr.New ty, Types.Ptr ty))

and resolve_expr_expect ctx tb venv e want =
  let e', ty = resolve_expr ctx tb venv e in
  if not (Types.equal ty want) then
    bail ctx (Ast.expr_loc e) "expected type %s, found %s" (Types.to_string want)
      (Types.to_string ty);
  e'

(* An lvalue that must denote a scalar location (assignment, read). *)
let resolve_scalar_lvalue ctx tb venv (lv : Ast.lvalue) : Ir.Expr.lvalue * Types.t =
  match lv with
  | Ast.Lname id ->
    let vid = lookup_var ctx venv id in
    (match var_ty tb vid with
    | Types.Array _ ->
      bail ctx id.Ast.loc "whole array '%s' cannot be assigned or read" id.Ast.name
    | (Types.Int | Types.Bool | Types.Ptr _) as ty -> (Ir.Expr.Lvar vid, ty))
  | Ast.Lindex (id, idx) -> (
    match resolve_expr ctx tb venv (Ast.Index (id, idx)) with
    | Ir.Expr.Index (vid, idx'), ty -> (Ir.Expr.Lindex (vid, idx'), ty)
    | _ -> assert false)
  | Ast.Lderef (d, id) -> (
    let vid = lookup_var ctx venv id in
    let ty = var_ty tb vid in
    match Types.deref d ty with
    | Some t -> (Ir.Expr.Lderef (vid, d), t)
    | None ->
      bail ctx id.Ast.loc "'%s' of type %s cannot be dereferenced %d time(s)"
        id.Ast.name (Types.to_string ty) d)

(* A by-reference actual: a variable (any type, including whole arrays)
   or an array element. *)
let resolve_ref_actual ctx tb venv (e : Ast.expr) : Ir.Expr.lvalue * Types.t =
  match e with
  | Ast.Name id ->
    let vid = lookup_var ctx venv id in
    (Ir.Expr.Lvar vid, var_ty tb vid)
  | Ast.Index (id, idx) -> (
    match resolve_expr ctx tb venv (Ast.Index (id, idx)) with
    | Ir.Expr.Index (vid, idx'), ty -> (Ir.Expr.Lindex (vid, idx'), ty)
    | _ -> assert false)
  | Ast.Deref (d, id) -> (
    let vid = lookup_var ctx venv id in
    let ty = var_ty tb vid in
    match Types.deref d ty with
    | Some t -> (Ir.Expr.Lderef (vid, d), t)
    | None ->
      bail ctx id.Ast.loc "'%s' of type %s cannot be dereferenced %d time(s)"
        id.Ast.name (Types.to_string ty) d)
  | _ ->
    bail ctx (Ast.expr_loc e)
      "this argument is bound to a 'var' parameter and must be a variable, an \
       array element, or a pointer dereference"

let resolve_call ctx tb ~caller ~pendings venv penv (callee : Ast.ident) args =
  let callee_pid =
    match find_scoped penv callee.Ast.name with
    | Some pid -> pid
    | None -> bail ctx callee.Ast.loc "unknown procedure '%s'" callee.Ast.name
  in
  let formals = pendings.(callee_pid).formals in
  if Array.length formals <> List.length args then
    bail ctx callee.Ast.loc "'%s' expects %d argument(s), got %d" callee.Ast.name
      (Array.length formals) (List.length args);
  let resolved_args =
    List.mapi
      (fun i arg ->
        let formal_vid = formals.(i) in
        let formal = tb.var_arr.(formal_vid) in
        let formal_ty = formal.Ir.Prog.vty in
        match formal.Ir.Prog.kind with
        | Ir.Prog.Formal { mode = Ir.Prog.By_ref; _ } ->
          let lv, ty = resolve_ref_actual ctx tb venv arg in
          if not (Types.equal ty formal_ty) then
            bail ctx (Ast.expr_loc arg)
              "argument %d of '%s': type %s cannot bind to 'var' parameter of type %s"
              (i + 1) callee.Ast.name (Types.to_string ty) (Types.to_string formal_ty);
          Ir.Prog.Arg_ref lv
        | Ir.Prog.Formal { mode = Ir.Prog.By_value; _ } ->
          Ir.Prog.Arg_value (resolve_expr_expect ctx tb venv arg formal_ty)
        | Ir.Prog.Global | Ir.Prog.Local _ -> assert false)
      args
  in
  let sid = ctx.n_sites in
  ctx.n_sites <- sid + 1;
  ctx.sites <-
    { Ir.Prog.sid; caller; callee = callee_pid; args = Array.of_list resolved_args }
    :: ctx.sites;
  ctx.site_locs <- callee.Ast.loc :: ctx.site_locs;
  sid

let rec resolve_stmts ctx tb ~caller ~pendings venv penv (stmts : Ast.stmt list) :
    Ir.Stmt.t list =
  List.filter_map
    (fun s ->
      try resolve_stmt ctx tb ~caller ~pendings venv penv s with
      | Bail -> None)
    stmts

and resolve_stmt ctx tb ~caller ~pendings venv penv (s : Ast.stmt) : Ir.Stmt.t option =
  (* Statement locations are recorded up front, before any sub-body is
     resolved, so their ordinals follow pre-order — the order
     Ir.Stmt.iter visits the resolved body.  [Skip] resolves to no
     statement at all and must record nothing.  A statement that bails
     leaves a stray entry, but then ctx.errors is non-empty and the loc
     tables are never built. *)
  (match s with
  | Ast.Skip -> ()
  | Ast.Assign (lv, _) | Ast.Read lv ->
    ctx.stmt_locs <- (caller, Ast.lvalue_loc lv) :: ctx.stmt_locs
  | Ast.If (c, _, _) | Ast.While (c, _) ->
    ctx.stmt_locs <- (caller, Ast.expr_loc c) :: ctx.stmt_locs
  | Ast.For (v, _, _, _) -> ctx.stmt_locs <- (caller, v.Ast.loc) :: ctx.stmt_locs
  | Ast.Call (callee, _) ->
    ctx.stmt_locs <- (caller, callee.Ast.loc) :: ctx.stmt_locs
  | Ast.Write e -> ctx.stmt_locs <- (caller, Ast.expr_loc e) :: ctx.stmt_locs);
  match s with
  | Ast.Skip -> None
  | Ast.Assign (lv, e) ->
    let lv', ty = resolve_scalar_lvalue ctx tb venv lv in
    let e' = resolve_expr_expect ctx tb venv e ty in
    Some (Ir.Stmt.Assign (lv', e'))
  | Ast.If (c, then_, else_) ->
    let c' = resolve_expr_expect ctx tb venv c Types.Bool in
    let then' = resolve_stmts ctx tb ~caller ~pendings venv penv then_ in
    let else' = resolve_stmts ctx tb ~caller ~pendings venv penv else_ in
    Some (Ir.Stmt.If (c', then', else'))
  | Ast.While (c, body) ->
    let c' = resolve_expr_expect ctx tb venv c Types.Bool in
    let body' = resolve_stmts ctx tb ~caller ~pendings venv penv body in
    Some (Ir.Stmt.While (c', body'))
  | Ast.For (v, lo, hi, body) ->
    let vid = lookup_var ctx venv v in
    (match var_ty tb vid with
    | Types.Int -> ()
    | ty ->
      bail ctx v.Ast.loc "loop variable '%s' must be int, found %s" v.Ast.name
        (Types.to_string ty));
    (* Recorded before the body so loop ordinals follow statement
       pre-order, matching Ir.Stmt.iter on the resolved program. *)
    ctx.loop_locs <- (caller, v.Ast.loc) :: ctx.loop_locs;
    let lo' = resolve_expr_expect ctx tb venv lo Types.Int in
    let hi' = resolve_expr_expect ctx tb venv hi Types.Int in
    let body' = resolve_stmts ctx tb ~caller ~pendings venv penv body in
    Some (Ir.Stmt.For (vid, lo', hi', body'))
  | Ast.Call (callee, args) ->
    Some (Ir.Stmt.Call (resolve_call ctx tb ~caller ~pendings venv penv callee args))
  | Ast.Read lv -> (
    let lv', ty = resolve_scalar_lvalue ctx tb venv lv in
    match ty with
    | Types.Int | Types.Bool -> Some (Ir.Stmt.Read lv')
    | Types.Ptr _ -> bail ctx (Ast.lvalue_loc lv) "cannot read into a pointer"
    | Types.Array _ -> assert false)
  | Ast.Write e -> (
    (* write accepts int or bool *)
    match resolve_expr ctx tb venv e with
    | e', (Types.Int | Types.Bool) -> Some (Ir.Stmt.Write e')
    | _, Types.Array _ -> bail ctx (Ast.expr_loc e) "cannot write a whole array"
    | _, Types.Ptr _ -> bail ctx (Ast.expr_loc e) "cannot write a pointer")

(* --- entry point --- *)

let resolve_with_locs (ast : Ast.program) : (Ir.Prog.t * Locs.t, error list) result =
  let ctx =
    {
      errors = [];
      vars = [];
      n_vars = 0;
      sites = [];
      n_sites = 0;
      proc_names = Hashtbl.create 64;
      var_locs = [];
      site_locs = [];
      loop_locs = [];
      stmt_locs = [];
    }
  in
  (* Globals. *)
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.decl) ->
      let ty = ty_of_ast d.Ast.d_ty in
      List.iter
        (fun (id : Ast.ident) ->
          check_array_extents ctx d.Ast.d_ty id.Ast.loc;
          if Hashtbl.mem globals id.Ast.name then
            report ctx id.Ast.loc "duplicate global '%s'" id.Ast.name
          else
            Hashtbl.replace globals id.Ast.name
              (fresh_var ctx ~loc:id.Ast.loc ~name:id.Ast.name ~ty ~kind:Ir.Prog.Global))
        d.Ast.d_names)
    ast.Ast.globals;
  (* Declaration pass: main is pid 0; its children are the top-level
     procedures. *)
  let next_pid = ref 1 in
  Hashtbl.replace ctx.proc_names ast.Ast.prog_name.Ast.name ();
  let sub_pendings, top_pids, top_penv =
    declare_procs ctx ~next_pid ~parent:0 ~level:0 ~venv:[ globals ] ~penv:[]
      ast.Ast.top_procs
  in
  let main_pending =
    {
      pid = 0;
      pname = ast.Ast.prog_name.Ast.name;
      ploc = ast.Ast.prog_name.Ast.loc;
      parent = None;
      level = 0;
      formals = [||];
      locals = [];
      nested = top_pids;
      venv = [ globals ];
      penv = top_penv;
      body = ast.Ast.main_body;
    }
  in
  (* Pids follow declaration order within a sibling group, not the
     pre-order of [sub_pendings]: place each record at its pid. *)
  let pendings = Array.make !next_pid main_pending in
  List.iter (fun p -> pendings.(p.pid) <- p) sub_pendings;
  (* Sanity: pids dense. *)
  Array.iteri (fun i p -> assert (p.pid = i)) pendings;
  let tb = { var_arr = Array.of_list (List.rev ctx.vars) } in
  (* Pass 2: bodies in pid order (so site ids follow pid order); a
     call looks its callee's record up by pid. *)
  let bodies =
    Array.init (Array.length pendings) (fun pid ->
        let p = pendings.(pid) in
        resolve_stmts ctx tb ~caller:pid ~pendings p.venv p.penv p.body)
  in
  match ctx.errors with
  | _ :: _ -> Error (List.rev ctx.errors)
  | [] ->
    let procs =
      Array.map2
        (fun (p : pending) body ->
          {
            Ir.Prog.pid = p.pid;
            pname = p.pname;
            parent = p.parent;
            level = p.level;
            formals = p.formals;
            locals = p.locals;
            nested = p.nested;
            body;
          })
        pendings bodies
    in
    let prog =
      {
        Ir.Prog.name = ast.Ast.prog_name.Ast.name;
        vars = tb.var_arr;
        procs;
        sites = Array.of_list (List.rev ctx.sites);
        main = 0;
      }
    in
    let loops = Array.make (Array.length procs) [] in
    List.iter
      (fun (pid, loc) -> loops.(pid) <- loc :: loops.(pid))
      ctx.loop_locs (* reversed input, so consing restores pre-order *);
    let stmts = Array.make (Array.length procs) [] in
    List.iter
      (fun (pid, loc) -> stmts.(pid) <- loc :: stmts.(pid))
      ctx.stmt_locs (* reversed input, so consing restores pre-order *);
    let locs =
      {
        Locs.procs = Array.map (fun p -> p.ploc) pendings;
        vars = Array.of_list (List.rev ctx.var_locs);
        sites = Array.of_list (List.rev ctx.site_locs);
        loops = Array.map Array.of_list loops;
        stmts = Array.map Array.of_list stmts;
      }
    in
    Ok (prog, locs)

let resolve ast = Result.map fst (resolve_with_locs ast)

let compile_with_locs ?file src =
  Obs.Span.with_ "frontend.compile" @@ fun () ->
  match Obs.Span.with_ "frontend.parse" (fun () -> Parser.parse ?file src) with
  | Result.Error (loc, msg) -> Error [ { loc; msg } ]
  | Ok ast -> Obs.Span.with_ "frontend.resolve" (fun () -> resolve_with_locs ast)

let compile ?file src = Result.map fst (compile_with_locs ?file src)

let compile_exn ?file src =
  match compile ?file src with
  | Ok p -> p
  | Error errs ->
    failwith
      (Format.asprintf "@[<v>%a@]"
         (Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_error)
         errs)
