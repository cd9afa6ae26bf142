(** Generic round-robin bit-vector dataflow solver.

    Classic union/gen-kill framework over a {!Cfg.t}: per-block
    transfer [f(x) = gen ∪ (x ∖ kill)], meet = union, iterated in
    reverse postorder (of the reversed graph for backward problems)
    until a full pass changes nothing.  Rapid in the Kam–Ullman sense,
    so the pass count stays small and — the property the bench
    records — total work is near-linear in program size.

    Determinism: the iteration order is a pure function of the CFG, so
    results (and the pass count) are identical however the caller
    schedules per-procedure solves. *)

type direction =
  | Forward  (** in(b) = ⋃ out(preds); entry seeded with [boundary]. *)
  | Backward  (** out(b) = ⋃ in(succs); exit seeded with [boundary]. *)

type problem = {
  direction : direction;
  n_bits : int;
  gen : int -> Bitvec.t;  (** Block-level gen; not retained, not mutated. *)
  kill : int -> Bitvec.t;  (** Block-level kill. *)
  boundary : Bitvec.t;
      (** Bits live on the boundary edge: entry-in for forward
          problems, exit-out for backward ones. *)
}

type result = {
  in_ : Bitvec.t array;  (** Per block, at block entry. *)
  out : Bitvec.t array;  (** Per block, at block exit. *)
  passes : int;  (** Round-robin passes, including the final quiet one. *)
}

val solve : Cfg.t -> problem -> result
