(** Statement-level transfer functions derived from the solved
    summaries.

    Ordinary instructions contribute their syntactic uses and
    definitions.  Call instructions are where Cooper–Kennedy pays off:
    a call's {e use} set is [LUSE(s) ∪ b_e(GUSE(q))] closed under the
    caller's §5 alias pairs (exactly {!Core.Analyze.use_of_site}), its
    {e may-def} set is [MOD(s)] (eq. 2 plus aliases), and its {e kill}
    set is the must-modified scalars of the callee projected through
    the binding — so classical liveness and reaching definitions flow
    {e through} call sites instead of dying at them.

    The must side comes from the interprocedural [MUSTMOD] summaries
    ({!Core.Mustmod}): intersection over branch paths, propagated
    bottom-up over the call condensation, §5/ptsto alias-demoted, and
    capped by [GMOD].  Under-approximating must-kill is always sound; a
    procedure that never returns makes any kill claim vacuous.  Kill
    sets additionally drop every variable in one of the caller's alias
    pairs: when two names may share a location, "definitely
    overwritten" claims about either are off the table
    (docs/dataflow.md and docs/mustmod.md work the examples). *)

type t

val make : Core.Analyze.t -> t

val analysis : t -> Core.Analyze.t

val must_mod : t -> int -> Bitvec.t
(** [MUSTMOD(q)]: variables procedure [q] definitely writes on every
    terminating run, in the callee's own frame — the interprocedural
    summaries of {!Core.Mustmod}.  Do not mutate. *)

val aliased : t -> int -> Bitvec.t
(** Variables appearing in some §5 alias pair of the procedure.  Do not
    mutate. *)

val use_of_site : t -> int -> Bitvec.t
(** Cached {!Core.Analyze.use_of_site}.  Do not mutate. *)

val mod_of_site : t -> int -> Bitvec.t
(** Cached {!Core.Analyze.mod_of_site}.  Do not mutate. *)

val kill_of_site : t -> int -> Bitvec.t
(** Must-kill at a call site, in the caller's frame: [MUSTDEF(callee)]
    projected through the binding (by-ref formals to scalar actual
    bases, non-locals kept, callee locals and by-value formals
    dropped), minus the caller's aliased variables.  Do not mutate. *)

val exit_live : t -> int -> Bitvec.t
(** Liveness boundary at a procedure's exit: everything that outlives
    the activation — non-locals plus the procedure's by-ref formals.
    Main keeps every global alive (program output is observable), so
    end-of-run stores to globals are deliberately never dead.  Do not
    mutate. *)

val add_use : t -> Bitvec.t -> Cfg.instr -> unit
(** Accumulate an instruction's use set (for liveness gen). *)

val iter_must_def : t -> Cfg.instr -> (int -> unit) -> unit
(** Variables the instruction definitely overwrites (liveness /
    reaching-definition kill). *)

val iter_may_def : t -> Cfg.instr -> (int -> unit) -> unit
(** Variables the instruction may write (reaching-definition gen);
    ascending, a superset of {!iter_must_def}'s. *)
