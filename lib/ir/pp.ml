let var_name p vid = (Prog.var p vid).Prog.vname
let proc_name p pid = (Prog.proc p pid).Prog.pname

(* Does [e], printed in context [ctx], begin with a dereference star?
   "(*" opens a comment, so an opening parenthesis right before such
   an expression is printed as "( " (docs/LANGUAGE.md). *)
let rec starts_with_star ctx (e : Expr.t) =
  match e with
  | Deref _ -> true
  | Binop (op, l, _) ->
    let prec = Expr.binop_precedence op in
    prec >= ctx && starts_with_star prec l
  | Int _ | Bool _ | Var _ | Index _ | Unop _ | Addr _ | New _ -> false

(* Expressions are printed with minimal parentheses: a subexpression is
   parenthesised only when its operator binds looser than the context,
   or equally on the right of a left-associative operator. *)
let rec pp_expr_prec p ctx ppf (e : Expr.t) =
  match e with
  | Int n -> if n < 0 then Format.fprintf ppf "(%d)" n else Format.pp_print_int ppf n
  | Bool true -> Format.pp_print_string ppf "true"
  | Bool false -> Format.pp_print_string ppf "false"
  | Var v -> Format.pp_print_string ppf (var_name p v)
  | Index (a, idx) ->
    Format.fprintf ppf "%s[%a]" (var_name p a)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (pp_expr_prec p 0))
      idx
  | Binop (op, l, r) ->
    let prec = Expr.binop_precedence op in
    let needs_parens = prec < ctx in
    if needs_parens then
      Format.pp_print_string ppf (if starts_with_star prec l then "( " else "(");
    Format.fprintf ppf "%a %a %a" (pp_expr_prec p prec) l Expr.pp_binop op
      (pp_expr_prec p (prec + 1))
      r;
    if needs_parens then Format.pp_print_string ppf ")"
  | Unop (op, e) ->
    let needs_parens = ctx > 6 in
    if needs_parens then Format.pp_print_string ppf "(";
    (match op with
    | Expr.Neg -> Format.fprintf ppf "-%a" (pp_expr_prec p 7) e
    | Expr.Not -> Format.fprintf ppf "not %a" (pp_expr_prec p 7) e);
    if needs_parens then Format.pp_print_string ppf ")"
  | Addr v -> Format.fprintf ppf "&%s" (var_name p v)
  | Deref (v, d) -> Format.fprintf ppf "%s%s" (String.make d '*') (var_name p v)
  | New ty -> Format.fprintf ppf "new %a" Types.pp ty

let pp_expr p ppf e = pp_expr_prec p 0 ppf e

let pp_lvalue p ppf = function
  | Expr.Lvar v -> Format.pp_print_string ppf (var_name p v)
  | Expr.Lindex (a, idx) ->
    Format.fprintf ppf "%s[%a]" (var_name p a)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (pp_expr p))
      idx
  | Expr.Lderef (v, d) ->
    Format.fprintf ppf "%s%s" (String.make d '*') (var_name p v)

let pp_arg p ppf = function
  | Prog.Arg_ref lv -> pp_lvalue p ppf lv
  | Prog.Arg_value e -> pp_expr p ppf e

(* An argument list opens with "(", so it is printed as "( " when the
   first argument starts with a dereference. *)
let open_args = function
  | Prog.Arg_ref (Expr.Lderef _) :: _ -> "( "
  | Prog.Arg_value e :: _ when starts_with_star 0 e -> "( "
  | _ -> "("

let rec pp_stmt p ppf (s : Stmt.t) =
  match s with
  | Assign (lv, e) -> Format.fprintf ppf "@[<h>%a := %a;@]" (pp_lvalue p) lv (pp_expr p) e
  | If (c, then_, []) ->
    Format.fprintf ppf "@[<v 2>if %a then@,%a@]@,end;" (pp_expr p) c (pp_stmts p) then_
  | If (c, then_, else_) ->
    Format.fprintf ppf "@[<v 2>if %a then@,%a@]@,@[<v 2>else@,%a@]@,end;" (pp_expr p) c
      (pp_stmts p) then_ (pp_stmts p) else_
  | While (c, body) ->
    Format.fprintf ppf "@[<v 2>while %a do@,%a@]@,end;" (pp_expr p) c (pp_stmts p) body
  | For (v, lo, hi, body) ->
    Format.fprintf ppf "@[<v 2>for %s := %a to %a do@,%a@]@,end;" (var_name p v)
      (pp_expr p) lo (pp_expr p) hi (pp_stmts p) body
  | Call sid ->
    let site = Prog.site p sid in
    let args = Array.to_list site.Prog.args in
    Format.fprintf ppf "@[<h>call %s%s%a);@]"
      (proc_name p site.Prog.callee)
      (open_args args)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (pp_arg p))
      args
  | Read lv -> Format.fprintf ppf "@[<h>read %a;@]" (pp_lvalue p) lv
  | Write e -> Format.fprintf ppf "@[<h>write %a;@]" (pp_expr p) e

and pp_stmts p ppf stmts =
  match stmts with
  | [] -> Format.fprintf ppf "skip;"
  | _ ->
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,") (pp_stmt p)
      ppf stmts

let group_decls p vids =
  (* Merge adjacent declarations of the same type into one [var] line,
     preserving order. *)
  let rec group = function
    | [] -> []
    | vid :: rest ->
      let ty = (Prog.var p vid).Prog.vty in
      let same, others =
        let rec take acc = function
          | v :: tl when Types.equal (Prog.var p v).Prog.vty ty -> take (v :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        take [ vid ] rest
      in
      (same, ty) :: group others
  in
  group vids

let pp_var_decls p ppf vids =
  List.iter
    (fun (group, ty) ->
      Format.fprintf ppf "var %a : %a;@,"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf vid -> Format.pp_print_string ppf (var_name p vid)))
        group Types.pp ty)
    (group_decls p vids)

let pp_param p ppf vid =
  let v = Prog.var p vid in
  let mode_prefix =
    match v.Prog.kind with
    | Prog.Formal { mode = Prog.By_ref; _ } -> "var "
    | Prog.Formal { mode = Prog.By_value; _ } -> ""
    | Prog.Global | Prog.Local _ -> ""
  in
  Format.fprintf ppf "%s%s : %a" mode_prefix v.Prog.vname Types.pp v.Prog.vty

let rec pp_proc p ppf (pr : Prog.proc) =
  Format.fprintf ppf "@[<v 2>procedure %s(%a);@," pr.Prog.pname
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") (pp_param p))
    (Array.to_list pr.Prog.formals);
  pp_var_decls p ppf pr.Prog.locals;
  List.iter
    (fun nested_pid ->
      pp_proc p ppf (Prog.proc p nested_pid);
      Format.fprintf ppf ";@,")
    pr.Prog.nested;
  Format.fprintf ppf "@[<v 2>begin@,%a@]@,end@]" (pp_stmts p) pr.Prog.body

let pp_program ppf (p : Prog.t) =
  let main = Prog.proc p p.Prog.main in
  let globals =
    Array.to_list p.Prog.vars
    |> List.filter_map (fun v ->
           if Prog.is_global v then Some v.Prog.vid else None)
  in
  Format.fprintf ppf "@[<v>program %s;@," p.Prog.name;
  pp_var_decls p ppf globals;
  pp_var_decls p ppf main.Prog.locals;
  List.iter
    (fun pid ->
      pp_proc p ppf (Prog.proc p pid);
      Format.fprintf ppf ";@,")
    main.Prog.nested;
  Format.fprintf ppf "@[<v 2>begin@,%a@]@,end.@]" (pp_stmts p) main.Prog.body

let to_string p = Format.asprintf "%a@." pp_program p

let qualified_var_name p vid =
  let v = Prog.var p vid in
  match Prog.var_owner v with
  | None -> v.Prog.vname
  | Some pid -> Printf.sprintf "%s.%s" (proc_name p pid) v.Prog.vname

let pp_var_set p ppf set =
  let qualified = qualified_var_name p in
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf vid -> Format.pp_print_string ppf (qualified vid)))
    (Bitvec.to_list set)
