(** One-call driver for the whole analysis pipeline.

    Runs, in order: program views ({!Ir.Info}), local analysis
    ({!Frontend.Local}), call multi-graph and binding multi-graph
    construction ({!Callgraph}), [RMOD]/[RUSE] on β (Figure 1),
    [IMOD+]/[IUSE+] (equation 5), [GMOD]/[GUSE] ([findgmod], Figure 2 —
    or its multi-level variant when the program nests procedures more
    than one level deep), alias pairs, and the per-site summary
    machinery of §5.

    The [USE] side is run through the same algorithms with the [USE]
    seeds — the paper's "analogous solution". *)

type t = {
  prog : Ir.Prog.t;
  info : Ir.Info.t;
  call : Callgraph.Call.t;
  binding : Callgraph.Binding.t;
  ptsto : Ptsto.t option;
      (** The points-to solution; [None] iff the program is
          pointer-free (then every phase ran its original, pointer-less
          code path).  Its projection ({!Ptsto.pointers}) is the one
          [info] was made with, and every phase read it from there. *)
  imod : Bitvec.t array;  (** Nesting-extended [IMOD], per procedure. *)
  iuse : Bitvec.t array;
  rmod : Rmod.result;
  ruse : Rmod.result;
  imod_plus : Bitvec.t array;
  iuse_plus : Bitvec.t array;
  gmod : Bitvec.t array;
  guse : Bitvec.t array;
  alias : Alias.t;
  mustmod : Mustmod.result;
      (** Interprocedural must-modify summaries — the
          intersection-over-paths dual of [gmod], with
          [MUSTMOD(p) ⊆ GMOD(p)] enforced ({!Mustmod}). *)
  summary : Summary.t;
  provenance : Provenance.t option;
      (** Derivation forest over the facts above; present iff the run
          asked for it.  [sidefx explain] and lint witnesses read it. *)
}

val run :
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?provenance:bool ->
  ?ptsto:Ptsto.tier ->
  Ir.Prog.t ->
  t
(** Analyze a program.  When the program declares procedures below
    nesting level 1 the multi-level [findgmod] is used automatically
    ({!Gmod_nested.solve}); plain Figure 2 on such a program is
    {!Gmod.solve}.

    Parallelism: [?pool], when given, is used for the local, [RMOD],
    [GMOD]/[GUSE] (flat or multi-level) and [MUSTMOD] phases;
    otherwise [?jobs] (default [1]; [0] means
    [Domain.recommended_domain_count ()]) builds a transient
    {!Par.Pool} for this run — at [jobs = 1] the same solvers run
    inline on the caller.  Results and [bitvec.vector_ops]/[word_ops]
    totals are bit-identical at every jobs setting (docs/parallel.md).

    [~provenance:true] (default [false]) additionally records the
    first derivation reason of every fact ({!Provenance}); the
    analysis results and the counted bit-vector operations are
    identical either way — provenance construction reads bits only
    through uncounted single-bit operations.

    [~ptsto] picks the points-to tier (default
    {!Ptsto.Steensgaard}) whose dereference projection enters [info]
    on programs with pointers; pointer-free programs never run the solver
    and analyze identically under either tier. *)

val provenance_forest : t -> Provenance.alias_table -> Provenance.t
(** The derivation forest over [t]'s solutions ({!Provenance.compute});
    [alias] holds the reasons {!Alias.compute} recorded.  [t]'s own
    [provenance] field is not read.  {!run} and the incremental engine
    both build their forests here. *)

val mod_of_site : t -> int -> Bitvec.t
(** [MOD(s)] — §5's final answer for a call site. *)

val use_of_site : t -> int -> Bitvec.t

val dmod_of_site : t -> int -> Bitvec.t
val duse_of_site : t -> int -> Bitvec.t

val gmod_of : t -> int -> Bitvec.t
(** [GMOD(p)] by pid.  Do not mutate. *)

val guse_of : t -> int -> Bitvec.t

val mustmod_of : t -> int -> Bitvec.t
(** [MUSTMOD(p)] by pid — variables definitely written on every
    terminating path through an invocation of [p].  Do not mutate. *)

val modified_anywhere : t -> Bitvec.t
(** [⋃_p GMOD(p) ∪ IMOD(p)] — every variable some procedure may write.
    Fresh vector; client analyses (the lint engine's write-only-global
    rule) read whole-program effect coverage off this. *)

val used_anywhere : t -> Bitvec.t
(** [⋃_p GUSE(p) ∪ IUSE(p)] — every variable some procedure may read
    (argument-evaluation [LUSE] included, via [IUSE]).  Fresh vector. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable report: per-procedure [RMOD]/[GMOD]/[GUSE], alias
    pairs, and per-site [MOD]/[USE] sets. *)
