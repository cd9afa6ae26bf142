type error = {
  where : string;
  what : string;
}

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.where e.what

let run (p : Prog.t) =
  let errors = ref [] in
  let fail where fmt =
    Format.kasprintf (fun what -> errors := { where; what } :: !errors) fmt
  in
  let nv = Prog.n_vars p and np = Prog.n_procs p and ns = Prog.n_sites p in
  let var_ok v = v >= 0 && v < nv in
  let proc_ok q = q >= 0 && q < np in

  (* Table ids match positions. *)
  Array.iteri
    (fun i v -> if v.Prog.vid <> i then fail "vars" "vid %d at index %d" v.Prog.vid i)
    p.Prog.vars;
  Array.iteri
    (fun i pr ->
      if pr.Prog.pid <> i then fail "procs" "pid %d at index %d" pr.Prog.pid i)
    p.Prog.procs;
  Array.iteri
    (fun i s -> if s.Prog.sid <> i then fail "sites" "sid %d at index %d" s.Prog.sid i)
    p.Prog.sites;

  if not (proc_ok p.Prog.main) then fail "program" "main pid %d out of range" p.Prog.main
  else if (Prog.proc p p.Prog.main).Prog.parent <> None then
    fail "program" "main has a parent";

  (* Nesting is a tree rooted at main: parent pointers acyclic, levels
     consistent, nested lists match parents. *)
  Array.iter
    (fun pr ->
      let name = pr.Prog.pname in
      (match pr.Prog.parent with
      | None ->
        if pr.Prog.pid <> p.Prog.main then fail name "non-main procedure has no parent";
        if pr.Prog.level <> 0 then fail name "root level is %d, not 0" pr.Prog.level
      | Some parent ->
        if not (proc_ok parent) then fail name "parent %d out of range" parent
        else begin
          let ppr = Prog.proc p parent in
          if pr.Prog.level <> ppr.Prog.level + 1 then
            fail name "level %d but parent level %d" pr.Prog.level ppr.Prog.level;
          if not (List.mem pr.Prog.pid ppr.Prog.nested) then
            fail name "missing from parent's nested list"
        end);
      List.iter
        (fun child ->
          if not (proc_ok child) then fail name "nested pid %d out of range" child
          else if (Prog.proc p child).Prog.parent <> Some pr.Prog.pid then
            fail name "nested proc %s does not point back"
              (Prog.proc p child).Prog.pname)
        pr.Prog.nested)
    p.Prog.procs;

  (* Variable kinds agree with the proc tables. *)
  Array.iter
    (fun v ->
      let name = v.Prog.vname in
      match v.Prog.kind with
      | Prog.Global -> ()
      | Prog.Local pid ->
        if not (proc_ok pid) then fail name "owner %d out of range" pid
        else if not (List.mem v.Prog.vid (Prog.proc p pid).Prog.locals) then
          fail name "local missing from %s's locals" (Prog.proc p pid).Prog.pname
      | Prog.Formal { proc = pid; index; _ } ->
        if not (proc_ok pid) then fail name "owner %d out of range" pid
        else begin
          let formals = (Prog.proc p pid).Prog.formals in
          if index < 0 || index >= Array.length formals then
            fail name "formal index %d out of range" index
          else if formals.(index) <> v.Prog.vid then
            fail name "formal table of %s disagrees at index %d"
              (Prog.proc p pid).Prog.pname index
        end)
    p.Prog.vars;

  (* Body checks per procedure: visibility, indexing rank, call/site
     cross references. *)
  let seen_sites = Array.make ns false in
  let check_var_use pname pid vid ctx =
    if not (var_ok vid) then fail pname "%s: variable id %d out of range" ctx vid
    else if not (Prog.visible p ~proc:pid ~var:vid) then
      fail pname "%s: %s not visible here" ctx (Prog.var p vid).Prog.vname
  in
  let rec check_expr pname pid ctx (e : Expr.t) =
    match e with
    | Int _ | Bool _ -> ()
    | Var vid ->
      check_var_use pname pid vid ctx;
      if var_ok vid && Types.is_array (Prog.var p vid).Prog.vty then
        fail pname "%s: array %s read as scalar" ctx (Prog.var p vid).Prog.vname
    | Index (a, idx) ->
      check_var_use pname pid a ctx;
      if var_ok a then begin
        let rank = Types.rank (Prog.var p a).Prog.vty in
        if rank = 0 then
          fail pname "%s: scalar %s indexed" ctx (Prog.var p a).Prog.vname
        else if rank <> List.length idx then
          fail pname "%s: %s indexed with %d subscripts, rank %d" ctx
            (Prog.var p a).Prog.vname (List.length idx) rank
      end;
      List.iter (check_expr pname pid ctx) idx
    | Binop (_, l, r) ->
      check_expr pname pid ctx l;
      check_expr pname pid ctx r;
      ()
    | Unop (_, e) -> check_expr pname pid ctx e
    | Addr vid ->
      check_var_use pname pid vid ctx;
      if var_ok vid && Types.is_array (Prog.var p vid).Prog.vty then
        fail pname "%s: address of array %s" ctx (Prog.var p vid).Prog.vname
    | Deref (vid, d) ->
      check_var_use pname pid vid ctx;
      if d < 1 then fail pname "%s: dereference depth %d < 1" ctx d;
      if var_ok vid && Types.deref d (Prog.var p vid).Prog.vty = None then
        fail pname "%s: %s cannot be dereferenced %d time(s)" ctx
          (Prog.var p vid).Prog.vname d
    | New ty -> if Types.is_array ty then fail pname "%s: new of array type" ctx
  in
  let check_lvalue pname pid ctx (lv : Expr.lvalue) =
    match lv with
    | Expr.Lvar vid -> check_var_use pname pid vid ctx
    | Expr.Lindex (a, idx) -> check_expr pname pid ctx (Expr.Index (a, idx))
    | Expr.Lderef (vid, d) -> check_expr pname pid ctx (Expr.Deref (vid, d))
  in
  let check_site pname pid sid =
    if sid < 0 || sid >= ns then fail pname "call site id %d out of range" sid
    else begin
      let s = Prog.site p sid in
      if seen_sites.(sid) then fail pname "site %d used by two call statements" sid;
      seen_sites.(sid) <- true;
      if s.Prog.caller <> pid then
        fail pname "site %d records caller %d, found in %d" sid s.Prog.caller pid;
      if not (proc_ok s.Prog.callee) then
        fail pname "site %d callee %d out of range" sid s.Prog.callee
      else begin
        let callee = Prog.proc p s.Prog.callee in
        if s.Prog.callee = p.Prog.main then fail pname "site %d calls main" sid
        else if not (Prog.callable p ~caller:pid ~callee:s.Prog.callee) then
          fail pname "site %d: %s not visible here" sid callee.Prog.pname;
        let n_formals = Array.length callee.Prog.formals in
        if Array.length s.Prog.args <> n_formals then
          fail pname "site %d passes %d args to %s/%d" sid (Array.length s.Prog.args)
            callee.Prog.pname n_formals
        else
          Array.iteri
            (fun i arg ->
              let mode = Prog.formal_mode p callee i in
              match (arg, mode) with
              | Prog.Arg_ref lv, Prog.By_ref ->
                check_lvalue pname pid (Printf.sprintf "site %d arg %d" sid i) lv;
                (* A whole array actual must match the formal's rank;
                   an element actual feeds a scalar formal. *)
                let formal_ty = (Prog.var p callee.Prog.formals.(i)).Prog.vty in
                let actual_ty =
                  match lv with
                  | Expr.Lvar v when var_ok v -> Some (Prog.var p v).Prog.vty
                  | Expr.Lindex (v, _) when var_ok v -> Some Types.Int
                  | Expr.Lderef (v, d) when var_ok v ->
                    Types.deref d (Prog.var p v).Prog.vty
                  | Expr.Lvar _ | Expr.Lindex _ | Expr.Lderef _ -> None
                in
                (match actual_ty with
                | Some ty when not (Types.equal ty formal_ty) ->
                  fail pname "site %d arg %d: type %s passed by ref to formal of type %s"
                    sid i (Types.to_string ty) (Types.to_string formal_ty)
                | Some _ | None -> ())
              | Prog.Arg_value e, Prog.By_value ->
                check_expr pname pid (Printf.sprintf "site %d arg %d" sid i) e
              | Prog.Arg_ref _, Prog.By_value ->
                fail pname "site %d arg %d: ref actual for value formal" sid i
              | Prog.Arg_value _, Prog.By_ref ->
                fail pname "site %d arg %d: value actual for ref formal" sid i)
            s.Prog.args
      end
    end
  in
  Prog.iter_procs p (fun pr ->
      let pname = pr.Prog.pname in
      let pid = pr.Prog.pid in
      Stmt.iter
        (fun s ->
          match s with
          | Stmt.Assign (lv, e) ->
            check_lvalue pname pid "assign" lv;
            check_expr pname pid "assign" e
          | Stmt.If (c, _, _) -> check_expr pname pid "if" c
          | Stmt.While (c, _) -> check_expr pname pid "while" c
          | Stmt.For (v, lo, hi, _) ->
            check_var_use pname pid v "for";
            if var_ok v && Types.is_array (Prog.var p v).Prog.vty then
              fail pname "for: loop variable %s is an array" (Prog.var p v).Prog.vname;
            check_expr pname pid "for" lo;
            check_expr pname pid "for" hi
          | Stmt.Call sid -> check_site pname pid sid
          | Stmt.Read lv -> check_lvalue pname pid "read" lv
          | Stmt.Write e -> check_expr pname pid "write" e)
        pr.Prog.body);
  Array.iteri
    (fun sid seen -> if not seen then fail "sites" "site %d has no call statement" sid)
    seen_sites;
  match !errors with
  | [] -> Ok ()
  | es -> Error (List.rev es)

let check_exn p =
  match run p with
  | Ok () -> ()
  | Error es ->
    invalid_arg
      (Format.asprintf "Validate.check_exn:@,%a"
         (Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_error)
         es)

(* --- CFG well-formedness --- *)

let check_cfg ~where ~n_blocks ~entry ~exit_ ~succs =
  let errors = ref [] in
  let fail fmt =
    Format.kasprintf (fun what -> errors := { where; what } :: !errors) fmt
  in
  let ok b = b >= 0 && b < n_blocks in
  if n_blocks <= 0 then fail "cfg: %d blocks" n_blocks;
  if not (ok entry) then fail "cfg: entry %d out of range" entry;
  if not (ok exit_) then fail "cfg: exit %d out of range" exit_;
  if ok entry && ok exit_ then begin
    let edge_ok = ref true in
    for b = 0 to n_blocks - 1 do
      List.iter
        (fun s ->
          if not (ok s) then begin
            edge_ok := false;
            fail "cfg: edge %d -> %d out of range" b s
          end)
        (succs b)
    done;
    if !edge_ok then begin
      (* Forward reachability from entry. *)
      let reach = Array.make n_blocks false in
      let rec fwd b =
        if not reach.(b) then begin
          reach.(b) <- true;
          List.iter fwd (succs b)
        end
      in
      fwd entry;
      for b = 0 to n_blocks - 1 do
        if not reach.(b) then fail "cfg: block %d unreachable from entry" b
      done;
      (* Co-reachability: every block must reach the exit. *)
      let preds = Array.make n_blocks [] in
      for b = 0 to n_blocks - 1 do
        List.iter (fun s -> preds.(s) <- b :: preds.(s)) (succs b)
      done;
      let coreach = Array.make n_blocks false in
      let rec bwd b =
        if not coreach.(b) then begin
          coreach.(b) <- true;
          List.iter bwd preds.(b)
        end
      in
      bwd exit_;
      for b = 0 to n_blocks - 1 do
        if not coreach.(b) then fail "cfg: block %d cannot reach exit" b
      done;
      if succs exit_ <> [] then fail "cfg: exit %d has successors" exit_
    end
  end;
  List.rev !errors
