(** [findgmod] over vectors of lattice elements — §6's claim that "the
    bit vector technique for solving the global variable problem can be
    directly extended to vectors of lattice elements".

    Same one-pass Tarjan structure as {!Core.Gmod}, with bitwise or
    replaced by pointwise {!Section.join} and the [∖ LOCAL] masking
    unchanged.  Sections crossing procedure boundaries are first
    widened by {!Bindfn.retarget_global} so their symbolic atoms remain
    meaningful in any frame (constants and immutable globals survive;
    frame-specific atoms become [Star]) — keeping the propagation
    frame-independent, which is what makes the strongly-connected
    component sharing step of Figure 2 sound in the sectioned setting.

    Defined for flat (two-level) programs, like the rest of the
    section analysis; {!Analyze_sections.applicable} guards. *)

val solve :
  Ir.Info.t ->
  Callgraph.Call.t ->
  immutable:Bitvec.t ->
  seed:Secmap.t array ->
  Secmap.t array
(** One-pass Tarjan form.  [immutable] is the program's set of
    globally-immutable globals ({!Analyze_sections.t}), derived once by
    the caller.  Each join along a call edge costs O(touched entries);
    the joins are added to {!Section.count_joins}. *)

val solve_iterative :
  Ir.Info.t ->
  Callgraph.Call.t ->
  immutable:Bitvec.t ->
  seed:Secmap.t array ->
  Secmap.t array
(** Chaotic-iteration reference (test oracle). *)
