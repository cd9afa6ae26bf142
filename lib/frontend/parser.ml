exception Error of Loc.t * string

type state = {
  mutable toks : (Token.t * Loc.t) list;
}

let error loc fmt = Format.kasprintf (fun msg -> raise (Error (loc, msg))) fmt

let peek st =
  match st.toks with
  | [] -> assert false (* tokenize always ends with EOF *)
  | (t, l) :: _ -> (t, l)

let advance st =
  match st.toks with
  | [] -> assert false
  | _ :: rest -> st.toks <- rest

let next st =
  let t, l = peek st in
  advance st;
  (t, l)

let expect st tok what =
  let t, l = next st in
  if t <> tok then error l "expected %s, found '%a'" what Token.pp t;
  l

let expect_ident st what : Ast.ident =
  let t, l = next st in
  match t with
  | Token.IDENT name -> { Ast.name; loc = l }
  | _ -> error l "expected %s, found '%a'" what Token.pp t

let expect_int st what =
  let t, l = next st in
  match t with
  | Token.INT n -> n
  | _ -> error l "expected %s, found '%a'" what Token.pp t

(* --- types --- *)

let rec parse_type st : Ast.ty =
  let t, l = next st in
  match t with
  | Token.TINT -> Ast.Ty_int
  | Token.TBOOL -> Ast.Ty_bool
  | Token.PTR ->
    let _ = expect st Token.OF "'of'" in
    Ast.Ty_ptr (parse_type st)
  | Token.ARRAY ->
    let _ = expect st Token.LBRACKET "'['" in
    let rec dims acc =
      let d = expect_int st "array extent" in
      match peek st with
      | Token.COMMA, _ ->
        advance st;
        dims (d :: acc)
      | _ -> List.rev (d :: acc)
    in
    let ds = dims [] in
    let _ = expect st Token.RBRACKET "']'" in
    let _ = expect st Token.OF "'of'" in
    let _ = expect st Token.TINT "'int'" in
    Ast.Ty_array ds
  | _ -> error l "expected a type, found '%a'" Token.pp t

(* --- expressions --- *)

let rec parse_expr_or st : Ast.expr =
  let rec loop lhs =
    match peek st with
    | Token.OR, _ ->
      advance st;
      loop (Ast.Binop (Ir.Expr.Or, lhs, parse_expr_and st))
    | _ -> lhs
  in
  loop (parse_expr_and st)

and parse_expr_and st =
  let rec loop lhs =
    match peek st with
    | Token.AND, _ ->
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
    match op_of (fst (peek st)) with
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
    match op_of (fst (peek st)) with
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
    match op_of (fst (peek st)) with
    | Some op ->
      advance st;
      loop (Ast.Binop (op, lhs, parse_expr_unary st))
    | None -> lhs
  in
  loop (parse_expr_unary st)

and parse_expr_unary st =
  match peek st with
  | Token.MINUS, _ ->
    advance st;
    Ast.Unop (Ir.Expr.Neg, parse_expr_unary st)
  | Token.NOT, _ ->
    advance st;
    Ast.Unop (Ir.Expr.Not, parse_expr_unary st)
  | Token.STAR, _ ->
    let d = parse_stars st in
    let id = expect_ident st "a pointer variable" in
    Ast.Deref (d, id)
  | Token.AMP, _ ->
    advance st;
    let id = expect_ident st "a variable" in
    Ast.Addr id
  | _ -> parse_expr_atom st

(* Consecutive ['*'] tokens of a dereference. *)
and parse_stars st =
  match peek st with
  | Token.STAR, _ ->
    advance st;
    1 + parse_stars st
  | _ -> 0

and parse_expr_atom st =
  let t, l = next st in
  match t with
  | Token.INT n -> Ast.Int (n, l)
  | Token.TRUE -> Ast.Bool (true, l)
  | Token.FALSE -> Ast.Bool (false, l)
  | Token.IDENT name -> (
    let id = { Ast.name; loc = l } in
    match peek st with
    | Token.LBRACKET, _ ->
      advance st;
      let idx = parse_expr_list st in
      let _ = expect st Token.RBRACKET "']'" in
      Ast.Index (id, idx)
    | _ -> Ast.Name id)
  | Token.LPAREN ->
    let e = parse_expr_or st in
    let _ = expect st Token.RPAREN "')'" in
    e
  | Token.NEW ->
    let ty = parse_type st in
    Ast.New (ty, l)
  | _ -> error l "expected an expression, found '%a'" Token.pp t

and parse_expr_list st =
  let rec loop acc =
    let e = parse_expr_or st in
    match peek st with
    | Token.COMMA, _ ->
      advance st;
      loop (e :: acc)
    | _ -> List.rev (e :: acc)
  in
  loop []

let parse_lvalue st what : Ast.lvalue =
  match peek st with
  | Token.STAR, _ ->
    let d = parse_stars st in
    let id = expect_ident st "a pointer variable" in
    Ast.Lderef (d, id)
  | _ -> (
    let id = expect_ident st what in
    match peek st with
    | Token.LBRACKET, _ ->
      advance st;
      let idx = parse_expr_list st in
      let _ = expect st Token.RBRACKET "']'" in
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
    if starts_stmt (fst (peek st)) then loop (parse_stmt st :: acc) else List.rev acc
  in
  loop []

and parse_stmt st : Ast.stmt =
  let t, l = peek st in
  match t with
  | Token.SKIP ->
    advance st;
    let _ = expect st Token.SEMI "';'" in
    Ast.Skip
  | Token.IDENT _ | Token.STAR ->
    let lv = parse_lvalue st "a variable" in
    let _ = expect st Token.ASSIGN "':='" in
    let e = parse_expr_or st in
    let _ = expect st Token.SEMI "';'" in
    Ast.Assign (lv, e)
  | Token.IF ->
    advance st;
    let cond = parse_expr_or st in
    let _ = expect st Token.THEN "'then'" in
    let then_ = parse_stmts st in
    let else_ =
      match peek st with
      | Token.ELSE, _ ->
        advance st;
        parse_stmts st
      | _ -> []
    in
    let _ = expect st Token.END "'end'" in
    let _ = expect st Token.SEMI "';'" in
    Ast.If (cond, then_, else_)
  | Token.WHILE ->
    advance st;
    let cond = parse_expr_or st in
    let _ = expect st Token.DO "'do'" in
    let body = parse_stmts st in
    let _ = expect st Token.END "'end'" in
    let _ = expect st Token.SEMI "';'" in
    Ast.While (cond, body)
  | Token.FOR ->
    advance st;
    let v = expect_ident st "loop variable" in
    let _ = expect st Token.ASSIGN "':='" in
    let lo = parse_expr_or st in
    let _ = expect st Token.TO "'to'" in
    let hi = parse_expr_or st in
    let _ = expect st Token.DO "'do'" in
    let body = parse_stmts st in
    let _ = expect st Token.END "'end'" in
    let _ = expect st Token.SEMI "';'" in
    Ast.For (v, lo, hi, body)
  | Token.CALL ->
    advance st;
    let callee = expect_ident st "procedure name" in
    let _ = expect st Token.LPAREN "'('" in
    let args =
      match peek st with
      | Token.RPAREN, _ -> []
      | _ -> parse_expr_list st
    in
    let _ = expect st Token.RPAREN "')'" in
    let _ = expect st Token.SEMI "';'" in
    Ast.Call (callee, args)
  | Token.READ ->
    advance st;
    let lv = parse_lvalue st "a variable" in
    let _ = expect st Token.SEMI "';'" in
    Ast.Read lv
  | Token.WRITE ->
    advance st;
    let e = parse_expr_or st in
    let _ = expect st Token.SEMI "';'" in
    Ast.Write e
  | _ -> error l "expected a statement, found '%a'" Token.pp t

(* --- declarations --- *)

let parse_ident_list st what =
  let rec loop acc =
    let id = expect_ident st what in
    match peek st with
    | Token.COMMA, _ ->
      advance st;
      loop (id :: acc)
    | _ -> List.rev (id :: acc)
  in
  loop []

let parse_var_decls st : Ast.decl list =
  let rec loop acc =
    match peek st with
    | Token.VAR, _ ->
      advance st;
      let names = parse_ident_list st "variable name" in
      let _ = expect st Token.COLON "':'" in
      let ty = parse_type st in
      let _ = expect st Token.SEMI "';'" in
      loop ({ Ast.d_names = names; d_ty = ty } :: acc)
    | _ -> List.rev acc
  in
  loop []

let parse_param st : Ast.param =
  let mode =
    match peek st with
    | Token.VAR, _ ->
      advance st;
      Ir.Prog.By_ref
    | _ -> Ir.Prog.By_value
  in
  let name = expect_ident st "parameter name" in
  let _ = expect st Token.COLON "':'" in
  let ty = parse_type st in
  { Ast.p_mode = mode; p_name = name; p_ty = ty }

let parse_params st =
  match peek st with
  | Token.RPAREN, _ -> []
  | _ ->
    let rec loop acc =
      let p = parse_param st in
      match peek st with
      | Token.SEMI, _ ->
        advance st;
        loop (p :: acc)
      | _ -> List.rev (p :: acc)
    in
    loop []

let rec parse_proc st : Ast.proc =
  let _ = expect st Token.PROCEDURE "'procedure'" in
  let name = expect_ident st "procedure name" in
  let _ = expect st Token.LPAREN "'('" in
  let params = parse_params st in
  let _ = expect st Token.RPAREN "')'" in
  let _ = expect st Token.SEMI "';'" in
  let decls = parse_var_decls st in
  let procs = parse_procs st in
  let _ = expect st Token.BEGIN "'begin'" in
  let body = parse_stmts st in
  let _ = expect st Token.END "'end'" in
  let _ = expect st Token.SEMI "';'" in
  { Ast.proc_name = name; params; decls; procs; body }

and parse_procs st =
  let rec loop acc =
    match peek st with
    | Token.PROCEDURE, _ -> loop (parse_proc st :: acc)
    | _ -> List.rev acc
  in
  loop []

let parse_program st : Ast.program =
  let _ = expect st Token.PROGRAM "'program'" in
  let name = expect_ident st "program name" in
  let _ = expect st Token.SEMI "';'" in
  let globals = parse_var_decls st in
  let top_procs = parse_procs st in
  let _ = expect st Token.BEGIN "'begin'" in
  let main_body = parse_stmts st in
  let _ = expect st Token.END "'end'" in
  let _ = expect st Token.DOT "'.'" in
  let _ = expect st Token.EOF "end of input" in
  { Ast.prog_name = name; globals; top_procs; main_body }

(* --- entry points --- *)

let with_tokens ?file src k =
  try
    let toks = Lexer.tokenize ?file src in
    Ok (k { toks })
  with
  | Lexer.Error (l, msg) -> Result.Error (l, msg)
  | Error (l, msg) -> Result.Error (l, msg)

let parse ?file src = with_tokens ?file src parse_program

let parse_expr ?file src =
  with_tokens ?file src (fun st ->
      let e = parse_expr_or st in
      let _ = expect st Token.EOF "end of input" in
      e)
