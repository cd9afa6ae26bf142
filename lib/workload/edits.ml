module Prog = Ir.Prog
module Expr = Ir.Expr
module Stmt = Ir.Stmt
module Edit = Incremental.Edit

let ( let* ) = Option.bind

let pick rand = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rand (List.length l)))

(* Int-typed scalars the given procedure can name.  Arrays are out:
   MiniProc has no whole-array reads or writes, so an [Lvar]/[Var] of
   array type would fail validation. *)
let visible_ints prog ~proc =
  let acc = ref [] in
  Prog.iter_vars prog (fun v ->
      if v.Prog.vty = Ir.Types.Int && Prog.visible prog ~proc ~var:v.Prog.vid
      then acc := v.Prog.vid :: !acc);
  List.rev !acc

let int_globals prog =
  let acc = ref [] in
  Prog.iter_vars prog (fun v ->
      if v.Prog.vty = Ir.Types.Int && Prog.is_global v then
        acc := v.Prog.vid :: !acc);
  List.rev !acc

let all_pids prog = List.init (Prog.n_procs prog) Fun.id

let gen_add_assign rand prog =
  let* pid = pick rand (all_pids prog) in
  let* target = pick rand (visible_ints prog ~proc:pid) in
  let value =
    if Random.State.bool rand then Expr.Int (Random.State.int rand 100)
    else
      match pick rand (visible_ints prog ~proc:pid) with
      | Some v -> Expr.Var v
      | None -> Expr.Int 0
  in
  Some (Edit.Add_assign { proc = pid; target; value })

let gen_remove_assign rand prog =
  let candidates =
    List.concat_map
      (fun pid ->
        (Prog.proc prog pid).Prog.body
        |> List.mapi (fun i s -> (i, s))
        |> List.filter_map (fun (i, s) ->
               match s with Stmt.Assign _ -> Some (pid, i) | _ -> None))
      (all_pids prog)
  in
  let* pid, index = pick rand candidates in
  Some (Edit.Remove_assign { proc = pid; index })

(* Arguments for a call to [callee] as written in [caller]: each
   by-reference formal needs a visible variable of exactly its type
   (validation compares them); by-value formals take a constant. *)
let args_for rand prog ~caller callee =
  let p = Prog.proc prog callee in
  let args =
    Array.map
      (fun fv ->
        let f = Prog.var prog fv in
        match f.Prog.kind with
        | Prog.Formal { mode = Prog.By_value; _ } ->
          Some (Prog.Arg_value (Expr.Int (Random.State.int rand 10)))
        | Prog.Formal { mode = Prog.By_ref; _ } ->
          let compatible = ref [] in
          Prog.iter_vars prog (fun v ->
              if
                v.Prog.vty = f.Prog.vty
                && Prog.visible prog ~proc:caller ~var:v.Prog.vid
              then compatible := v.Prog.vid :: !compatible);
          let* v = pick rand !compatible in
          Some (Prog.Arg_ref (Expr.Lvar v))
        | _ -> None)
      p.Prog.formals
  in
  if Array.for_all Option.is_some args then Some (Array.map Option.get args)
  else None

let gen_add_call rand prog =
  let* caller = pick rand (all_pids prog) in
  let callees =
    List.filter (fun callee -> Prog.callable prog ~caller ~callee) (all_pids prog)
  in
  let* callee = pick rand callees in
  let* args = args_for rand prog ~caller callee in
  Some (Edit.Add_call { caller; callee; args })

let gen_remove_call rand prog =
  let* sid = pick rand (List.init (Prog.n_sites prog) Fun.id) in
  Some (Edit.Remove_call { sid })

(* A retarget must name a callee visible from the caller and keep the
   argument vector valid for it: same arity, same modes, and each
   [Arg_ref (Lvar v)]'s type equal to the new formal's type ([Lindex]
   actuals bind only [Int] formals). *)
let retarget_ok prog site callee =
  let p = Prog.proc prog callee in
  callee <> site.Prog.callee
  && Prog.callable prog ~caller:site.Prog.caller ~callee
  && Array.length p.Prog.formals = Array.length site.Prog.args
  && Array.for_all2
       (fun fv arg ->
         let f = Prog.var prog fv in
         match (f.Prog.kind, arg) with
         | Prog.Formal { mode = Prog.By_value; _ }, Prog.Arg_value _ -> true
         | Prog.Formal { mode = Prog.By_ref; _ }, Prog.Arg_ref lv -> (
           match lv with
           | Expr.Lvar v -> (Prog.var prog v).Prog.vty = f.Prog.vty
           | Expr.Lindex _ -> f.Prog.vty = Ir.Types.Int
           | Expr.Lderef (p, d) -> (
             match Ir.Types.deref d (Prog.var prog p).Prog.vty with
             | Some t -> Ir.Types.equal t f.Prog.vty
             | None -> false))
         | _ -> false)
       p.Prog.formals site.Prog.args

let gen_retarget rand prog =
  let* sid = pick rand (List.init (Prog.n_sites prog) Fun.id) in
  let site = Prog.site prog sid in
  let* callee = pick rand (List.filter (retarget_ok prog site) (all_pids prog)) in
  Some (Edit.Retarget_call { sid; callee })

let gen_add_proc rand prog counter =
  let rec fresh () =
    incr counter;
    let name = Printf.sprintf "edit_q%d" !counter in
    if Prog.find_proc prog name = None then name else fresh ()
  in
  let globals = int_globals prog in
  let sample l = List.filter (fun _ -> Random.State.int rand 3 = 0) l in
  Some
    (Edit.Add_proc
       { name = fresh (); writes = sample globals; reads = sample globals })

(* Only a procedure that is never called, calls no one, and nests no
   one can be removed — in practice the procedures this generator
   itself added. *)
let gen_remove_proc rand prog =
  let called = Array.make (Prog.n_procs prog) false in
  Prog.iter_sites prog (fun s -> called.(s.Prog.callee) <- true);
  let removable =
    List.filter
      (fun pid ->
        let p = Prog.proc prog pid in
        pid <> prog.Prog.main
        && p.Prog.nested = []
        && (not called.(pid))
        && Stmt.call_sites p.Prog.body = [])
      (all_pids prog)
  in
  let* pid = pick rand removable in
  Some (Edit.Remove_proc { pid })

let gen ~rand ~steps prog =
  let counter = ref 0 in
  let generators =
    [|
      gen_add_assign;
      gen_add_assign (* assignments twice: the common, cheap edit *);
      gen_remove_assign;
      gen_add_call;
      gen_remove_call;
      gen_retarget;
      (fun rand prog -> gen_add_proc rand prog counter);
      gen_remove_proc;
    |]
  in
  let rec step prog acc n =
    if n = 0 then List.rev acc
    else
      (* Try random edit kinds until one is constructible on the
         current program; [draw] bounds the attempts so a program with,
         say, no call sites just skips the site edits. *)
      let rec draw tries =
        if tries = 0 then None
        else
          let g =
            generators.(Random.State.int rand (Array.length generators))
          in
          match g rand prog with Some e -> Some e | None -> draw (tries - 1)
      in
      match draw 10 with
      | None -> step prog acc (n - 1)
      | Some edit ->
        let prog' = Edit.apply prog edit in
        (match Ir.Validate.run prog' with
        | Ok () -> ()
        | Error errs ->
          Fmt.failwith "Workload.Edits produced an invalid edit %s: %a"
            (Edit.to_string prog edit)
            (Fmt.list Ir.Validate.pp_error)
            errs);
        step prog' ((edit, prog') :: acc) (n - 1)
  in
  step prog [] steps
