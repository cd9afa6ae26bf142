exception Error of Loc.t * string

(* One token of lookahead, pulled from the lexer on demand: [tok] is
   the next unconsumed token, and [loc st] its position. *)
type state = {
  lexer : Lexer.t;
  mutable tok : Token.t;
}

let loc st = Lexer.token_loc st.lexer

let error loc fmt = Format.kasprintf (fun msg -> raise (Error (loc, msg))) fmt

(* Consume the lookahead.  A lexical error in the token after it is
   raised here, once every earlier token has been checked, so the first
   error in source order is the one reported. *)
let advance st = st.tok <- Lexer.next_token st.lexer

let expect st tok what =
  if st.tok <> tok then error (loc st) "expected %s, found '%a'" what Token.pp st.tok;
  advance st

let expect_ident st what : Ast.ident =
  match st.tok with
  | Token.IDENT name ->
    let id = { Ast.name; loc = loc st } in
    advance st;
    id
  | t -> error (loc st) "expected %s, found '%a'" what Token.pp t

let expect_int st what =
  match st.tok with
  | Token.INT n ->
    advance st;
    n
  | t -> error (loc st) "expected %s, found '%a'" what Token.pp t

(* --- types --- *)

let rec parse_type st : Ast.ty =
  match st.tok with
  | Token.TINT ->
    advance st;
    Ast.Ty_int
  | Token.TBOOL ->
    advance st;
    Ast.Ty_bool
  | Token.PTR ->
    advance st;
    expect st Token.OF "'of'";
    Ast.Ty_ptr (parse_type st)
  | Token.ARRAY ->
    advance st;
    expect st Token.LBRACKET "'['";
    let rec dims acc =
      let d = expect_int st "array extent" in
      match st.tok with
      | Token.COMMA ->
        advance st;
        dims (d :: acc)
      | _ -> List.rev (d :: acc)
    in
    let ds = dims [] in
    expect st Token.RBRACKET "']'";
    expect st Token.OF "'of'";
    expect st Token.TINT "'int'";
    Ast.Ty_array ds
  | t -> error (loc st) "expected a type, found '%a'" Token.pp t

(* --- expressions --- *)

let rec parse_expr_or st : Ast.expr =
  let rec loop lhs =
    match st.tok with
    | Token.OR ->
      advance st;
      loop (Ast.Binop (Ir.Expr.Or, lhs, parse_expr_and st))
    | _ -> lhs
  in
  loop (parse_expr_and st)

and parse_expr_and st =
  let rec loop lhs =
    match st.tok with
    | Token.AND ->
      advance st;
      loop (Ast.Binop (Ir.Expr.And, lhs, parse_expr_cmp st))
    | _ -> lhs
  in
  loop (parse_expr_cmp st)

and parse_expr_cmp st =
  let op_of = function
    | Token.LT -> Some Ir.Expr.Lt
    | Token.LE -> Some Ir.Expr.Le
    | Token.GT -> Some Ir.Expr.Gt
    | Token.GE -> Some Ir.Expr.Ge
    | Token.EQEQ -> Some Ir.Expr.Eq
    | Token.NE -> Some Ir.Expr.Ne
    | _ -> None
  in
  let rec loop lhs =
    match op_of st.tok with
    | Some op ->
      advance st;
      loop (Ast.Binop (op, lhs, parse_expr_add st))
    | None -> lhs
  in
  loop (parse_expr_add st)

and parse_expr_add st =
  let op_of = function
    | Token.PLUS -> Some Ir.Expr.Add
    | Token.MINUS -> Some Ir.Expr.Sub
    | _ -> None
  in
  let rec loop lhs =
    match op_of st.tok with
    | Some op ->
      advance st;
      loop (Ast.Binop (op, lhs, parse_expr_mul st))
    | None -> lhs
  in
  loop (parse_expr_mul st)

and parse_expr_mul st =
  let op_of = function
    | Token.STAR -> Some Ir.Expr.Mul
    | Token.SLASH -> Some Ir.Expr.Div
    | Token.PERCENT -> Some Ir.Expr.Mod
    | _ -> None
  in
  let rec loop lhs =
    match op_of st.tok with
    | Some op ->
      advance st;
      loop (Ast.Binop (op, lhs, parse_expr_unary st))
    | None -> lhs
  in
  loop (parse_expr_unary st)

and parse_expr_unary st =
  match st.tok with
  | Token.MINUS ->
    advance st;
    Ast.Unop (Ir.Expr.Neg, parse_expr_unary st)
  | Token.NOT ->
    advance st;
    Ast.Unop (Ir.Expr.Not, parse_expr_unary st)
  | Token.STAR ->
    let d = parse_stars st in
    let id = expect_ident st "a pointer variable" in
    Ast.Deref (d, id)
  | Token.AMP ->
    advance st;
    let id = expect_ident st "a variable" in
    Ast.Addr id
  | _ -> parse_expr_atom st

(* Consecutive ['*'] tokens of a dereference. *)
and parse_stars st =
  match st.tok with
  | Token.STAR ->
    advance st;
    1 + parse_stars st
  | _ -> 0

and parse_expr_atom st =
  let l = loc st in
  match st.tok with
  | Token.INT n ->
    advance st;
    Ast.Int (n, l)
  | Token.TRUE ->
    advance st;
    Ast.Bool (true, l)
  | Token.FALSE ->
    advance st;
    Ast.Bool (false, l)
  | Token.IDENT name -> (
    advance st;
    let id = { Ast.name; loc = l } in
    match st.tok with
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expr_list st in
      expect st Token.RBRACKET "']'";
      Ast.Index (id, idx)
    | _ -> Ast.Name id)
  | Token.LPAREN ->
    advance st;
    let e = parse_expr_or st in
    expect st Token.RPAREN "')'";
    e
  | Token.NEW ->
    advance st;
    let ty = parse_type st in
    Ast.New (ty, l)
  | t -> error l "expected an expression, found '%a'" Token.pp t

and parse_expr_list st =
  let rec loop acc =
    let e = parse_expr_or st in
    match st.tok with
    | Token.COMMA ->
      advance st;
      loop (e :: acc)
    | _ -> List.rev (e :: acc)
  in
  loop []

let parse_lvalue st what : Ast.lvalue =
  match st.tok with
  | Token.STAR ->
    let d = parse_stars st in
    let id = expect_ident st "a pointer variable" in
    Ast.Lderef (d, id)
  | _ -> (
    let id = expect_ident st what in
    match st.tok with
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expr_list st in
      expect st Token.RBRACKET "']'";
      Ast.Lindex (id, idx)
    | _ -> Ast.Lname id)

(* --- statements --- *)

let starts_stmt = function
  | Token.IDENT _ | Token.STAR | Token.IF | Token.WHILE | Token.FOR | Token.CALL
  | Token.READ | Token.WRITE | Token.SKIP ->
    true
  | _ -> false

let rec parse_stmts st : Ast.stmt list =
  let rec loop acc =
    if starts_stmt st.tok then loop (parse_stmt st :: acc) else List.rev acc
  in
  loop []

and parse_stmt st : Ast.stmt =
  match st.tok with
  | Token.SKIP ->
    advance st;
    expect st Token.SEMI "';'";
    Ast.Skip
  | Token.IDENT _ | Token.STAR ->
    let lv = parse_lvalue st "a variable" in
    expect st Token.ASSIGN "':='";
    let e = parse_expr_or st in
    expect st Token.SEMI "';'";
    Ast.Assign (lv, e)
  | Token.IF ->
    advance st;
    let cond = parse_expr_or st in
    expect st Token.THEN "'then'";
    let then_ = parse_stmts st in
    let else_ =
      match st.tok with
      | Token.ELSE ->
        advance st;
        parse_stmts st
      | _ -> []
    in
    expect st Token.END "'end'";
    expect st Token.SEMI "';'";
    Ast.If (cond, then_, else_)
  | Token.WHILE ->
    advance st;
    let cond = parse_expr_or st in
    expect st Token.DO "'do'";
    let body = parse_stmts st in
    expect st Token.END "'end'";
    expect st Token.SEMI "';'";
    Ast.While (cond, body)
  | Token.FOR ->
    advance st;
    let v = expect_ident st "loop variable" in
    expect st Token.ASSIGN "':='";
    let lo = parse_expr_or st in
    expect st Token.TO "'to'";
    let hi = parse_expr_or st in
    expect st Token.DO "'do'";
    let body = parse_stmts st in
    expect st Token.END "'end'";
    expect st Token.SEMI "';'";
    Ast.For (v, lo, hi, body)
  | Token.CALL ->
    advance st;
    let callee = expect_ident st "procedure name" in
    expect st Token.LPAREN "'('";
    let args =
      match st.tok with
      | Token.RPAREN -> []
      | _ -> parse_expr_list st
    in
    expect st Token.RPAREN "')'";
    expect st Token.SEMI "';'";
    Ast.Call (callee, args)
  | Token.READ ->
    advance st;
    let lv = parse_lvalue st "a variable" in
    expect st Token.SEMI "';'";
    Ast.Read lv
  | Token.WRITE ->
    advance st;
    let e = parse_expr_or st in
    expect st Token.SEMI "';'";
    Ast.Write e
  | t -> error (loc st) "expected a statement, found '%a'" Token.pp t

(* --- declarations --- *)

let parse_ident_list st what =
  let rec loop acc =
    let id = expect_ident st what in
    match st.tok with
    | Token.COMMA ->
      advance st;
      loop (id :: acc)
    | _ -> List.rev (id :: acc)
  in
  loop []

let parse_var_decls st : Ast.decl list =
  let rec loop acc =
    match st.tok with
    | Token.VAR ->
      advance st;
      let names = parse_ident_list st "variable name" in
      expect st Token.COLON "':'";
      let ty = parse_type st in
      expect st Token.SEMI "';'";
      loop ({ Ast.d_names = names; d_ty = ty } :: acc)
    | _ -> List.rev acc
  in
  loop []

let parse_param st : Ast.param =
  let mode =
    match st.tok with
    | Token.VAR ->
      advance st;
      Ir.Prog.By_ref
    | _ -> Ir.Prog.By_value
  in
  let name = expect_ident st "parameter name" in
  expect st Token.COLON "':'";
  let ty = parse_type st in
  { Ast.p_mode = mode; p_name = name; p_ty = ty }

let parse_params st =
  match st.tok with
  | Token.RPAREN -> []
  | _ ->
    let rec loop acc =
      let p = parse_param st in
      match st.tok with
      | Token.SEMI ->
        advance st;
        loop (p :: acc)
      | _ -> List.rev (p :: acc)
    in
    loop []

let rec parse_proc st : Ast.proc =
  expect st Token.PROCEDURE "'procedure'";
  let name = expect_ident st "procedure name" in
  expect st Token.LPAREN "'('";
  let params = parse_params st in
  expect st Token.RPAREN "')'";
  expect st Token.SEMI "';'";
  let decls = parse_var_decls st in
  let procs = parse_procs st in
  expect st Token.BEGIN "'begin'";
  let body = parse_stmts st in
  expect st Token.END "'end'";
  expect st Token.SEMI "';'";
  { Ast.proc_name = name; params; decls; procs; body }

and parse_procs st =
  let rec loop acc =
    match st.tok with
    | Token.PROCEDURE -> loop (parse_proc st :: acc)
    | _ -> List.rev acc
  in
  loop []

let parse_program st : Ast.program =
  expect st Token.PROGRAM "'program'";
  let name = expect_ident st "program name" in
  expect st Token.SEMI "';'";
  let globals = parse_var_decls st in
  let top_procs = parse_procs st in
  expect st Token.BEGIN "'begin'";
  let main_body = parse_stmts st in
  expect st Token.END "'end'";
  expect st Token.DOT "'.'";
  expect st Token.EOF "end of input";
  { Ast.prog_name = name; globals; top_procs; main_body }

(* --- entry points --- *)

let with_state ?file src k =
  try
    let lexer = Lexer.create ?file src in
    Ok (k { lexer; tok = Lexer.next_token lexer })
  with
  | Lexer.Error (l, msg) -> Result.Error (l, msg)
  | Error (l, msg) -> Result.Error (l, msg)

let parse ?file src = with_state ?file src parse_program

let parse_expr ?file src =
  with_state ?file src (fun st ->
      let e = parse_expr_or st in
      expect st Token.EOF "end of input";
      e)
