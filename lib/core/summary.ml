module Prog = Ir.Prog
module Stmt = Ir.Stmt

type t = {
  info : Ir.Info.t;
  gmod : Bitvec.t array;
  guse : Bitvec.t array;
  shared_mod : Bitvec.t array;
  shared_use : Bitvec.t array;
  alias : Alias.t;
}

(* The callee's part of every projection (eq. 8): [GMOD(q) ∖ LOCAL(q)]. *)
let shared info q summary =
  let v = Bitvec.copy summary in
  ignore (Bitvec.inter_into ~src:(Ir.Info.non_local info q) ~dst:v);
  v

let make ?prev info ~gmod ~guse ~alias =
  let rebuild vecs old moved =
    let a = Array.copy old in
    List.iter (fun q -> a.(q) <- shared info q vecs.(q)) moved;
    a
  in
  let shared_mod, shared_use =
    match prev with
    | None -> (Array.mapi (shared info) gmod, Array.mapi (shared info) guse)
    | Some (old, mod_moved, use_moved) ->
      (rebuild gmod old.shared_mod mod_moved, rebuild guse old.shared_use use_moved)
  in
  { info; gmod; guse; shared_mod; shared_use; alias }

let projection t ~mode sid =
  let prog = Ir.Info.prog t.info in
  let s = Prog.site prog sid in
  let callee = Prog.proc prog s.Prog.callee in
  let summary, shared =
    match mode with
    | `Mod -> (t.gmod.(s.Prog.callee), t.shared_mod.(s.Prog.callee))
    | `Use -> (t.guse.(s.Prog.callee), t.shared_use.(s.Prog.callee))
  in
  (* Non-local survivors, shared by every site that calls the callee. *)
  let result = Bitvec.copy shared in
  (* Formal-to-actual projection. *)
  Array.iteri
    (fun i arg ->
      match arg with
      | Prog.Arg_value _ -> ()
      | Prog.Arg_ref lv ->
        (* A dereference actual binds the cell [*...*p] may name —
           the effect lands on the pointed-to variables, never on the
           pointer itself. *)
        if Bitvec.get summary callee.Prog.formals.(i) then
          List.iter (Bitvec.set result) (Ir.Info.lvalue_cells t.info lv))
    s.Prog.args;
  result

let dmod_site t sid = projection t ~mode:`Mod sid

let duse_site t sid =
  let result = projection t ~mode:`Use sid in
  List.iter (Bitvec.set result) (Frontend.Local.luse_stmt t.info (Stmt.Call sid));
  result

let close_in_proc t ~proc set = Alias.close t.alias ~proc set

let mod_site t sid =
  let prog = Ir.Info.prog t.info in
  let s = Prog.site prog sid in
  close_in_proc t ~proc:s.Prog.caller (dmod_site t sid)

let use_site t sid =
  let prog = Ir.Info.prog t.info in
  let s = Prog.site prog sid in
  close_in_proc t ~proc:s.Prog.caller (duse_site t sid)

(* Equation (2) over a whole statement: local effects of the statement
   and all sub-statements, plus the projection of every contained call
   site. *)
let stmt_effect t ~mode ~local_of stmt =
  let result = Ir.Info.fresh t.info in
  Stmt.iter
    (fun s ->
      List.iter (Bitvec.set result) (local_of t.info s);
      match s with
      | Stmt.Call sid ->
        let proj = projection t ~mode sid in
        ignore (Bitvec.union_into ~src:proj ~dst:result)
      | Stmt.Assign _ | Stmt.If _ | Stmt.While _ | Stmt.For _ | Stmt.Read _
      | Stmt.Write _ ->
        ())
    [ stmt ];
  result

let dmod_stmt t ~proc:_ stmt =
  stmt_effect t ~mode:`Mod
    ~local_of:Frontend.Local.lmod_stmt stmt

let duse_stmt t ~proc:_ stmt =
  stmt_effect t ~mode:`Use
    ~local_of:Frontend.Local.luse_stmt stmt

let mod_stmt t ~proc stmt = close_in_proc t ~proc (dmod_stmt t ~proc stmt)
let use_stmt t ~proc stmt = close_in_proc t ~proc (duse_stmt t ~proc stmt)
