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
  provenance : provenance option;
      (** Present iff the run asked for provenance.  [sidefx explain]
          and lint witnesses read it through {!provenance_forest}. *)
}

and provenance = {
  alias_reasons : Provenance.alias_table;
      (** The §5 reasons {!Alias.compute} recorded inline while it
          solved — eager, since no post-pass can reconstruct them. *)
  forest : Provenance.t Lazy.t;
      (** The derivation forest over the solutions above, built by
          {!provenance_forest} the first time it is read. *)
}

val run :
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?provenance:bool ->
  ?ptsto:Ptsto.tier ->
  Ir.Prog.t ->
  t
(** Analyze a program.  GMOD and GUSE come from the multi-level
    [findgmod] ({!Gmod_nested.solve}) on every program, at [dP = 1] on
    a flat one; plain Figure 2 on a nested program is {!Gmod.solve}.

    Parallelism: [?pool], when given, is used for the local, [RMOD],
    [GMOD]/[GUSE] (flat or multi-level) and [MUSTMOD] phases;
    otherwise [?jobs] (default [1]; [0] means
    [Domain.recommended_domain_count ()]) builds a transient
    {!Par.Pool} for this run — at [jobs = 1] the same solvers run
    inline on the caller.  Results and [bitvec.vector_ops]/[word_ops]
    totals are bit-identical at every jobs setting (docs/parallel.md).

    [~provenance:true] (default [false]) additionally records the
    first derivation reason of every fact ({!Provenance}): the alias
    reasons during {!Alias.compute}, the rest on demand
    ({!provenance_forest}).  The analysis results and the counted
    bit-vector operations are identical either way — provenance
    construction reads bits only through uncounted single-bit
    operations.

    [~ptsto] picks the points-to tier (default
    {!Ptsto.Steensgaard}) whose dereference projection enters [info]
    on programs with pointers; pointer-free programs never run the solver
    and analyze identically under either tier. *)

val with_provenance : t -> Provenance.alias_table -> t
(** [t] carrying provenance: [alias] holds the reasons {!Alias.compute}
    recorded for [t]'s alias pairs, and the rest of the forest is a
    lazy {!Provenance.compute} over [t]'s solutions.  {!run} and the
    incremental engine both attach provenance here, so an edit costs
    nothing for it until a witness is asked for. *)

val provenance_forest : t -> Provenance.t option
(** The derivation forest ([None] without provenance), built under a
    [provenance] span the first time it is read.  The forest is an
    OCaml lazy value: two domains must not force one at the same time,
    so it is read on the domain that serves the analysis, never inside
    a {!Par.Pool} task. *)

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
