(** Per-procedure solution cache and scheduling.

    Owns one {!Transfer.t} per analysed program and a lazily filled
    per-procedure cache of (CFG, liveness, reaching definitions).
    {!solve_all} fills every empty slot — under a {!Par.Pool} one task
    per procedure, each writing its own slot, so results are
    jobs-invariant by construction; clients that run in parallel
    themselves (the lint engine) must presolve through it before
    fanning out.

    {!refresh} is the incremental hook: after a body-preserving edit it
    re-derives the transfer functions, drops the slots of the edited
    procedures plus every procedure with a call site whose callee's
    summary inputs (GMOD, GUSE, MUSTDEF) or whose own alias pairs
    changed, and keeps the rest — their inputs are bit-identical, so
    re-solving them could only reproduce the cached answer.  Any shape
    change falls back to {!reset}. *)

type solution = {
  cfg : Cfg.t;
  live : Live.t;
  reach : Reach.t;
}

type t

val create : ?locs:Frontend.Locs.t -> Core.Analyze.t -> t
(** No solving happens yet; [locs] defaults to dummy positions. *)

val analysis : t -> Core.Analyze.t
val transfer : t -> Transfer.t

val solution : t -> int -> solution
(** Solve (and cache) one procedure on demand. *)

val solve_all : ?pool:Par.Pool.t -> t -> unit
(** Fill every unsolved slot, under the "dataflow.solve" span; counters
    [dataflow.procs_solved], [dataflow.blocks], [dataflow.live_passes],
    [dataflow.reach_passes], [dataflow.kill_visits] — published on the
    calling domain in pid order, so they are the same at every
    [--jobs]. *)

val refresh : ?locs:Frontend.Locs.t -> t -> Core.Analyze.t -> edited:int list -> int list
(** Re-target the driver at a re-analysed program after body edits
    (same variable/procedure/site tables — anything else resets
    everything).  Returns the invalidated pids, for telemetry and
    tests; counter [dataflow.invalidated]. *)

val reset : ?locs:Frontend.Locs.t -> t -> Core.Analyze.t -> unit
(** Drop everything and re-target. *)
