(** Reaching definitions — the forward instance over definition ids.

    The definition universe is one id per (instruction occurrence,
    variable written): ordinary writes contribute a single pair, a call
    one pair per variable of [MOD(s)] — a summary-sized proxy for every
    store the callee might do.  A definition is killed only by a
    definite overwrite (the same must-def sets liveness kills with), so
    call sites kill through {!Transfer.kill_of_site}.

    Gen/kill are built with one backward walk per block: a definition
    is generated iff no later instruction of the block definitely
    writes its variable, and each variable's definitions are walked
    once per block that definitely writes it ({!kill_visits}).  Every
    table is sized by the procedure's definitions and instructions,
    none by the program's variable count (docs/dataflow.md). *)

type def = {
  did : int;
  block : int;
  ord : int;  (** Statement ordinal of the writing instruction. *)
  var : int;
  must : bool;  (** Whether the write is definite (kills other defs). *)
}

type t

val solve : Transfer.t -> Cfg.t -> t
val cfg : t -> Cfg.t
val passes : t -> int

val kill_visits : t -> int
(** Definition ids the gen/kill build visited:
    [Σ_blocks Σ_{v killed in b} |defs(v)|]. *)

val n_defs : t -> int
val def : t -> int -> def
val defs_of_var : t -> int -> int list
(** Definition ids writing a variable, ascending. *)

val reach_in : t -> int -> Bitvec.t
(** Definitions reaching block entry.  Do not mutate. *)

val reach_out : t -> int -> Bitvec.t

val fold_instrs :
  t ->
  Transfer.t ->
  block:int ->
  init:'a ->
  f:('a -> reach_before:Bitvec.t -> ord:int -> Cfg.instr -> 'a) ->
  'a
(** Forward walk over one block's instructions, exposing the
    definitions reaching {e immediately before} each instruction — the
    dual of {!Live.fold_instrs}.  [reach_before] is a scratch vector
    reused across iterations: read it during [f], do not keep it. *)
