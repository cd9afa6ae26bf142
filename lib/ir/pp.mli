(** Pretty-printer from resolved programs back to MiniProc source.

    The output is valid MiniProc concrete syntax, re-parsable by the
    front end — the round-trip [parse ∘ print = id] (up to ids) is a
    test-suite invariant, and the workload generators use this printer
    to exercise the whole front end on large synthetic programs.

    Where a declaration shadows an outer name the printed name is the
    declared one; MiniProc scoping rules make the reparse resolve it to
    the same declaration. *)

val pp_expr : Prog.t -> Format.formatter -> Expr.t -> unit
val pp_lvalue : Prog.t -> Format.formatter -> Expr.lvalue -> unit
val to_string : Prog.t -> string
(** The whole program as MiniProc source, main block last. *)

val var_name : Prog.t -> int -> string
(** Display name of a variable: its source name. *)

val qualified_var_name : Prog.t -> int -> string
(** The name as reports print it: bare for globals, [proc.x]
    otherwise. *)

val proc_name : Prog.t -> int -> string

val pp_var_set : Prog.t -> Format.formatter -> Bitvec.t -> unit
(** Print a variable-id bit vector as [{name, name, ...}] with names
    qualified by owner ([proc.x]) when not global, ascending by id —
    handy in analysis reports and test diagnostics. *)
