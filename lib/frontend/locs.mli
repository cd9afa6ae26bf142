(** Source positions for the entities of a resolved program.

    {!Ir.Prog} is deliberately position-free (ids only), but client
    analyses — the lint engine above all — need to point a finding at a
    line of source.  This side table carries one {!Loc.t} per
    procedure, variable, and call site of a program, plus the [for]
    loops of each procedure in statement pre-order (loops have no ids
    of their own).  {!Sema.compile_with_locs} fills it during
    resolution, where the surface locations are still at hand.

    A table is only meaningful against the exact program it was built
    with: ids are positional.  Programs that never saw the front end
    (generated workloads, post-edit programs — {!Ir.Patch} renumbers
    ids) use {!dummy}, whose every entry is {!Loc.dummy}. *)

type t = {
  procs : Loc.t array;  (** By pid; the procedure-name token ([main]: the program name). *)
  vars : Loc.t array;  (** By vid; the declaring identifier. *)
  sites : Loc.t array;  (** By sid; the callee name at the call statement. *)
  loops : Loc.t array array;
      (** By pid, then [for]-loop ordinal in statement pre-order (the
          order {!Ir.Stmt.iter} visits them). *)
  stmts : Loc.t array array;
      (** By pid, then statement ordinal in pre-order — {e every}
          statement of the body, not just loops, so statement-level
          clients (the dataflow layer's dead-store rule) can point at
          the exact statement.  Statements inside a [for] body carry
          their own positions, not the loop header's. *)
}

val dummy : Ir.Prog.t -> t
(** Every entry {!Loc.dummy}, shaped to the given program. *)

val proc : t -> int -> Loc.t
val var : t -> int -> Loc.t
val site : t -> int -> Loc.t

val loop : t -> proc:int -> int -> Loc.t
(** Location of the [ordinal]-th [for] loop of a procedure in pre-order;
    {!Loc.dummy} when out of range (a table from {!dummy}, or an edited
    program). *)

val stmt : t -> proc:int -> int -> Loc.t
(** Location of the [ordinal]-th statement of a procedure's body in
    pre-order ({!Ir.Stmt.iter} order, the ordinal a CFG instruction
    carries); {!Loc.dummy} when out of range. *)
