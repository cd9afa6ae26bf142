(** Driver for the sectioned (§6) analysis chain on flat programs:
    local sections → [rsd] on β → sectioned [IMOD+] → sectioned
    [GMOD]/[GUSE] → per-site sectioned [MOD]/[USE].

    Flattening every section to a bit reproduces the §3 bit-level
    answers exactly (soundness/precision bridge, tested); the gain is
    that effects confined to rows, columns or single elements of arrays
    stay visible, which is what loop parallelisation needs (§6's
    motivation, exercised by the [parallelize] example and the
    {!Deps} test). *)

type t = {
  info : Ir.Info.t;
  call : Callgraph.Call.t;
  binding : Callgraph.Binding.t;
  imod_flat : Bitvec.t array;
      (** Per procedure, the variables it may modify locally
          ({!Frontend.Local.imod_flat}, no pointer projection): the
          set that disqualifies its subscript atoms. *)
  immutable : Bitvec.t;
      (** The globals no procedure modifies directly: symbolic
          constants program-wide, whose atoms survive across procedure
          boundaries ({!Bindfn.retarget_global}). *)
  rsmod : Rsmod.result;
  rsuse : Rsmod.result;
  imod_plus : Secmap.t array;  (** Sectioned [IMOD+], per procedure. *)
  iuse_plus : Secmap.t array;
  gmod : Secmap.t array;  (** Sectioned [GMOD], per procedure. *)
  guse : Secmap.t array;
}

val applicable : Ir.Prog.t -> bool
(** Section analysis is defined on flat (two-level) programs. *)

val run : ?info:Ir.Info.t -> ?call:Callgraph.Call.t -> Ir.Prog.t -> t
(** Raises [Invalid_argument] if not {!applicable}.

    [?info] and [?call] let a caller that already has them for [prog]
    (the lint engine, from its {!Core.Analyze.t}) pass them in.  The
    binding multi-graph is always rebuilt without points-to edges,
    which §6 does not model.

    The whole-program facts ([imod_flat], [immutable], each side's
    local sections) are derived once per run and passed to every later
    step, so the chain is linear in the call and binding graphs, with
    each join costing O(touched entries) ({!Secmap}).  The result is
    not mutated after [run]; lint rules on a domain pool share it. *)

val mod_of_site : t -> int -> Secmap.t
(** Sectioned [DMOD(s)] — the §5 projection with binding-function
    translation of the callee's formal sections onto the actuals.
    (Alias extension, being whole-variable information, is a bit-level
    concern; apply {!Core.Alias} to the flattened map if needed.) *)

val use_of_site : t -> int -> Secmap.t

val loop_summary :
  t -> proc:int -> ivar:int -> body:Ir.Stmt.t list -> Secmap.t * Secmap.t
(** [(MOD, USE)] of one iteration of a loop over [ivar] contained in
    procedure [proc]: the loop variable is treated as {e stable} (it is
    fixed within an iteration), so sections stay pinned to it and
    {!Deps.analyze_loop} can separate iterations. *)

val pp_report : Format.formatter -> t -> unit
