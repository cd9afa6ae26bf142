(** Resolved MiniProc expressions and lvalues.

    Variables are referred to by their program-wide dense id (see
    {!Prog}); the front end's semantic analysis performs the name
    resolution.  Expressions are side-effect free: MiniProc has no
    value-returning functions, so all interprocedural effects flow
    through call {e statements}. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop = Neg | Not

type t =
  | Int of int
  | Bool of bool
  | Var of int  (** Scalar variable read, by id. *)
  | Index of int * t list  (** [Index (a, idx)] reads element [a[idx]]. *)
  | Binop of binop * t * t
  | Unop of unop * t
  | Addr of int  (** [&x]: address of a scalar variable. *)
  | Deref of int * int
      (** [Deref (p, d)]: the [d]-fold dereference [*...*p] of pointer
          variable [p], [d >= 1]. *)
  | New of Types.t  (** [new T]: fresh heap cell; the value is [ptr of T]. *)

(** Assignable locations. *)
type lvalue =
  | Lvar of int  (** Whole variable (scalar, or whole array). *)
  | Lindex of int * t list  (** One array element. *)
  | Lderef of int * int
      (** [Lderef (p, d)]: the cell reached by [d] dereferences of
          pointer variable [p]. *)

val lvalue_base : lvalue -> int
(** The variable id an lvalue ultimately names. *)

val vars : t -> int list
(** Ids of all variables read by an expression, each listed once,
    ascending. *)

val lvalue_index_vars : lvalue -> int list
(** Variables read to evaluate an lvalue's address (empty for [Lvar];
    subscript variables for [Lindex]; the pointer variable itself for
    [Lderef]), each once, ascending. *)

val equal : t -> t -> bool

val pp_binop : Format.formatter -> binop -> unit

val binop_precedence : binop -> int
(** Higher binds tighter; used by the pretty-printer to place a
    minimal set of parentheses. *)
