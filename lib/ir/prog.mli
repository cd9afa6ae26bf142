(** Resolved MiniProc programs.

    A program is a set of dense tables: variables by id, procedures by
    id, call sites by id.  The main program block is itself a procedure
    (with no formals); every other procedure has a lexical parent, so
    the procedure table doubles as the nesting tree of §3.3/§4.
    Program-level variables have kind {!Global} — they are
    {e not} counted as locals of the main procedure, matching the
    paper's footnote 3 (main's [GMOD] may legitimately be non-empty).

    Invariants (checked by {!Validate.run}): ids are dense and
    self-consistent; argument vectors match the callee's formal list in
    arity and mode; by-reference actuals are lvalues whose base
    variable is visible at the call site; only array-typed variables
    are indexed, with the right rank. *)

type param_mode =
  | By_ref  (** [var] parameter: callee modifications reach the actual. *)
  | By_value  (** Copied in; callee modifications stay local. *)

type var_kind =
  | Global  (** Declared in the program block. *)
  | Local of int  (** Declared in procedure [pid] (possibly main). *)
  | Formal of { proc : int; index : int; mode : param_mode }
      (** Formal parameter [index] (0-based) of procedure [proc]. *)

type var = {
  vid : int;
  vname : string;
  vty : Types.t;
  kind : var_kind;
}

(** Actual argument at a call site. *)
type arg =
  | Arg_ref of Expr.lvalue
      (** Bound to a [By_ref] formal; must denote a location. *)
  | Arg_value of Expr.t  (** Bound to a [By_value] formal. *)

type site = {
  sid : int;
  caller : int;
      (** The innermost procedure whose body contains the call.  With
          nesting this may differ from the procedure whose formals the
          arguments mention (§3.3, problem 2). *)
  callee : int;
  args : arg array;
}

type proc = {
  pid : int;
  pname : string;
  parent : int option;  (** Lexically enclosing procedure; [None] only for main. *)
  level : int;  (** Nesting depth: main = 0, its procedures = 1, ... *)
  formals : int array;  (** Variable ids, positional. *)
  locals : int list;  (** Non-formal locals (globals excluded for main). *)
  nested : int list;  (** Procedures declared directly inside, in order. *)
  body : Stmt.t list;
}

type t = {
  name : string;
  vars : var array;
  procs : proc array;
  sites : site array;
  main : int;  (** Pid of the main program block. *)
}

val n_vars : t -> int
val n_procs : t -> int
val n_sites : t -> int

val var : t -> int -> var
val proc : t -> int -> proc
val site : t -> int -> site

val var_owner : var -> int option
(** Declaring procedure; [None] for globals. *)

val is_global : var -> bool
val is_ref_formal : var -> bool

val formal_mode : t -> proc -> int -> param_mode
(** Mode of the [i]-th formal of a procedure. *)

val owner_level : t -> var -> int
(** Nesting level of the variable's declaration: 0 for globals, the
    owner's level otherwise (formals of a level-[l] procedure are
    level [l]). *)

val ancestors : t -> int -> int list
(** [ancestors p pid] lists [pid], its parent, ..., up to main. *)

val is_ancestor : t -> anc:int -> desc:int -> bool
(** Lexical (nesting-tree) ancestry, reflexive. *)

val callable : t -> caller:int -> callee:int -> bool
(** Static scoping of procedure names: [callee] may be called from
    [caller] iff its parent is [caller] or one of [caller]'s lexical
    ancestors (so: [caller]'s children, itself, its siblings, its
    ancestors and their siblings).  Main is never callable. *)

val visible : t -> proc:int -> var:int -> bool
(** Static scoping: a variable is visible in [proc] iff it is global or
    declared by [proc] or one of its lexical ancestors.  (Shadowing is
    resolved by the front end before ids are assigned, so id-level
    visibility needs no shadowing logic.) *)

val iter_procs : t -> (proc -> unit) -> unit
val iter_sites : t -> (site -> unit) -> unit
val iter_vars : t -> (var -> unit) -> unit

val sites_of : t -> int -> site list
(** Call sites whose [caller] is the given procedure, by site id. *)

val max_level : t -> int
(** The paper's [dP]: deepest procedure nesting level in the program. *)

val find_proc : t -> string -> proc option
(** Look a procedure up by name (names are globally unique in
    MiniProc). *)

val find_var : t -> proc:int -> string -> var option
(** Resolve a name as the given procedure would see it: innermost
    declaration along the nesting chain, then globals. *)
