(** Liveness — the backward instance over variable ids.

    A variable is live at a point when some path reaches a read of it
    (possibly inside a callee, via the call's summary-derived use set)
    before any definite overwrite.  The exit boundary is
    {!Transfer.exit_live}: whatever outlives the activation. *)

type t

val solve : Transfer.t -> Cfg.t -> t
val cfg : t -> Cfg.t
val passes : t -> int

val live_in : t -> int -> Bitvec.t
(** Live at block entry.  Do not mutate. *)

val fold_instrs : t -> Transfer.t -> block:int -> init:'a ->
  f:('a -> live_after:Bitvec.t -> ord:int -> Cfg.instr -> 'a) -> 'a
(** Walk one block's instructions backward, exposing the live-after set
    of each (a scratch vector, valid only during the callback). *)
