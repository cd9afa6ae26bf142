(** Semantic analysis: surface AST → resolved {!Ir.Prog}.

    Performs static-scope name resolution (formals and locals shadow
    enclosing declarations; procedures may call themselves, any
    lexically visible procedure — ancestors, siblings, ancestors'
    siblings — and their own nested procedures, with forward references
    allowed) and a simple type check:

    - [int] and [bool] are distinct; conditions are [bool], arithmetic
      and comparisons are over [int];
    - arrays are indexed with exactly their declared rank, elements are
      [int]; whole arrays cannot be assigned, read, or written;
    - by-reference actuals must be lvalues (a variable or an array
      element) whose type equals the formal's; whole arrays can only be
      passed by reference; array elements may be passed by reference to
      scalar [int] formals;
    - by-value formals must be scalars and receive [int]/[bool]
      expressions of matching type.

    Procedure names are required to be globally unique (a MiniProc
    simplification); variable names only need to be unique within
    their declaring scope.

    The id layout of the result: main is procedure 0 and other
    procedures are numbered in declaration pre-order; variables are
    numbered globals first, then per procedure formals before locals in
    pre-order; call sites are numbered by textual order of the call
    statements within increasing procedure id. *)

type error = {
  loc : Loc.t;
  msg : string;
}

val pp_error : Format.formatter -> error -> unit

val resolve : Ast.program -> (Ir.Prog.t, error list) result
(** All diagnostics are collected; the program is returned only when
    there are none. *)

val compile : ?file:string -> string -> (Ir.Prog.t, error list) result
(** [parse] + [resolve]; parse errors are reported as a singleton
    list. *)

val compile_with_locs :
  ?file:string -> string -> (Ir.Prog.t * Locs.t, error list) result
(** [parse] + {!resolve}, also returning the {!Locs} side table
    (source positions by procedure / variable / call-site id), which
    only the front end can build.  Consumed by diagnostics clients
    ({!Lint}, [sidefx lint]). *)

val compile_exn : ?file:string -> string -> Ir.Prog.t
(** Raises [Failure] with a formatted report on any diagnostic. *)
