type binop = Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne | And | Or
type unop = Neg | Not

type t =
  | Int of int
  | Bool of bool
  | Var of int
  | Index of int * t list
  | Binop of binop * t * t
  | Unop of unop * t
  | Addr of int  (** address of a scalar variable: [&x] *)
  | Deref of int * int  (** [Deref (p, d)]: [d]-fold dereference [*...*p], d >= 1 *)
  | New of Types.t  (** [new T]: fresh heap cell, value has type [ptr of T] *)

type lvalue =
  | Lvar of int
  | Lindex of int * t list
  | Lderef of int * int  (** write through [d] dereferences of variable [p] *)

let lvalue_base = function
  | Lvar v | Lindex (v, _) | Lderef (v, _) -> v

module Int_set = Set.Make (Int)

let rec add_vars acc = function
  | Int _ | Bool _ | New _ -> acc
  | Var v | Addr v | Deref (v, _) -> Int_set.add v acc
  | Index (a, idx) -> List.fold_left add_vars (Int_set.add a acc) idx
  | Binop (_, l, r) -> add_vars (add_vars acc l) r
  | Unop (_, e) -> add_vars acc e

let vars e = Int_set.elements (add_vars Int_set.empty e)

let lvalue_index_vars = function
  | Lvar _ -> []
  | Lindex (_, idx) ->
    Int_set.elements (List.fold_left add_vars Int_set.empty idx)
  | Lderef (p, _) -> [ p ]

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Var x, Var y -> x = y
  | Index (x, xi), Index (y, yi) ->
    x = y && List.length xi = List.length yi && List.for_all2 equal xi yi
  | Binop (o1, l1, r1), Binop (o2, l2, r2) -> o1 = o2 && equal l1 l2 && equal r1 r2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal e1 e2
  | Addr x, Addr y -> x = y
  | Deref (x, dx), Deref (y, dy) -> x = y && dx = dy
  | New t1, New t2 -> Types.equal t1 t2
  | (Int _ | Bool _ | Var _ | Index _ | Binop _ | Unop _ | Addr _ | Deref _ | New _), _
    ->
    false

let pp_binop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Add -> "+"
    | Sub -> "-"
    | Mul -> "*"
    | Div -> "/"
    | Mod -> "%"
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="
    | Eq -> "=="
    | Ne -> "!="
    | And -> "and"
    | Or -> "or")

let binop_precedence = function
  | Or -> 1
  | And -> 2
  | Lt | Le | Gt | Ge | Eq | Ne -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5
