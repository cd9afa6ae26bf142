(** Witness reconstruction from a {!Provenance} forest.

    Where {!Provenance} stores one machine word per first-set event,
    this module walks those reasons back into complete {e witness
    chains} — the call/β path that carried a fact to where it was
    observed, ending at source-level evidence (a def-site, a reference
    binding, an alias introduction).  Chains come in two forms:

    - {e structured} ({!gmod_chain}, {!rmod_chain}, {!alias_links}) —
      the raw steps, for tests that replay a chain against the graphs
      and for JSON output;
    - {e rendered} ({!explain_gmod}, {!explain_rmod},
      {!explain_alias}) — human-readable lines with source spans from
      a {!Frontend.Locs.t} table, the form [sidefx explain] prints and
      lint findings embed as their [witness] field.

    Every function returns [None] when the analysis carries no
    provenance, when the queried fact does not hold, or (for [rmod])
    when the variable has no β node. *)

type side = [ `Mod | `Use ]

type gmod_step = { proc : int; reason : Provenance.gmod_reason }
(** One link of a [GMOD]/[GUSE] chain: why [var ∈ GMOD(proc)].  A
    [Gcall]/[Gnested] reason continues at the callee/child with the
    same variable; [Glocal]/[Gbind] reasons are terminal. *)

type rmod_step = { node : int; reason : Provenance.rmod_reason }
(** One link of an [RMOD]/[RUSE] chain over β nodes; [Rseed] is
    terminal, [Redge e] continues at [e]'s destination. *)

type alias_link = {
  aproc : int;
  pair : int * int;
  reason : Provenance.alias_reason;
}
(** One recorded derivation step of the §5 closure, in the procedure
    [aproc] the pair holds in. *)

val gmod_chain :
  Analyze.t -> side:side -> proc:int -> var:int -> gmod_step list option
(** The derivation path from [var ∈ GMOD(proc)] (resp. [GUSE]) down to
    its eq. 5 seed.  The head's [proc] is the queried procedure; each
    [Gcall sid] step continues at [sid]'s callee, each [Gnested c] at
    the child [c]; the last step carries the terminal reason. *)

val rmod_chain : Analyze.t -> side:side -> var:int -> rmod_step list option
(** The β path from the by-reference formal [var]'s node to a seed
    node (a formal in its owner's folded [IMOD]/[IUSE]). *)

val alias_links :
  Analyze.t -> proc:int -> int -> int -> alias_link list option
(** The full derivation of an alias pair: the queried pair's reason
    first, followed (depth-first) by the derivations of every pair a
    [Apropagated]/[Ainherited] reason references.  Acyclic because
    reasons reference strictly earlier fixpoint facts; each pair is
    expanded once. *)

val explain_gmod :
  Analyze.t ->
  locs:Frontend.Locs.t ->
  side:side ->
  proc:int ->
  var:int ->
  string list option
(** Rendered witness: a compact arrow chain ([p →site 3 q ⊃ r]) plus
    one evidence line per step, def-sites and call sites located
    through [locs].  A line names the variable as the fact grammar
    does in the procedure the line is about: by its bare name where
    that resolves to it there, as [owner.var] elsewhere (a dereference
    can reach another procedure's local), so [gmod:P:bump.cell] and
    [gmod:P:through.cell] read apart.  {!explain_must} and
    {!explain_alias} name variables the same way. *)

val explain_rmod :
  Analyze.t -> locs:Frontend.Locs.t -> side:side -> var:int -> string list option

val explain_must :
  Analyze.t -> locs:Frontend.Locs.t -> proc:int -> var:int -> string list option
(** Rendered [MUSTMOD] witness: a compact arrow chain plus one evidence
    line per step, ending at a definite write located through [locs]. *)

val explain_alias :
  Analyze.t -> locs:Frontend.Locs.t -> proc:int -> int -> int -> string list option

(** {1 The fact grammar}

    What [sidefx explain --fact] and the server's [explain] request
    accept: [gmod:P:V], [guse:P:V], [must:P:V] (why [V] is in that set
    of procedure [P]); [rmod:P:F], [ruse:P:F] (why by-reference formal
    [F] of [P] is); [alias:P:X:Y]; and [diag:CODE[:FILTER]], the lint
    findings with that code ({!Lint.Diagnostic.matches}). *)

type fact =
  | Fglobal of side * string * string
  | Fmust of string * string
  | Fref of side * string * string
  | Falias of string * string * string
  | Fdiag of string * string option

val parse_fact : string -> (fact, string) result
(** Names stay unresolved; the error message lists the grammar. *)

val resolve_proc : Ir.Prog.t -> string -> (int, string) result
(** A procedure's pid by name, or [unknown procedure 'P']. *)

val resolve_var : Ir.Prog.t -> proc:int -> string -> (int, string) result
(** A variable's vid by name in [proc]'s scope, or by [owner.var] (the
    variable [owner] declares, in scope or not), or
    [unknown variable 'V' in scope of 'P']. *)

val fact_witness :
  Analyze.t -> locs:Frontend.Locs.t -> fact -> (string list option, string) result
(** Resolve a parsed fact's names (left to right, the first unknown
    one is the error) and render its witness: [Ok None] when the fact
    does not hold.  [Fdiag] facts name lint findings, which this layer
    cannot compute; they raise [Invalid_argument]. *)

val all_facts :
  Analyze.t -> locs:Frontend.Locs.t -> (string * string list option) list
(** Every derivable non-lint fact, in the fact grammar, with its
    witness ([None] when provenance cannot supply one): per procedure
    its [gmod], [guse], [must] and [alias] facts, then every
    by-reference formal's [rmod]/[ruse] fact.  A variable is named by
    its bare name where that resolves to it in the fact's procedure,
    and as [owner.var] ({!Ir.Pp.qualified_var_name}) elsewhere, so
    every listed fact goes back through {!parse_fact} and
    {!fact_witness}.  The order is the output
    order of [sidefx explain --all] and of the server's [explain]
    with [all]; both append the [diag] facts of the lint findings. *)

val fact_json : string * string list option -> Obs.Json.t
(** [{"fact": F, "witness": [lines] | null}]. *)
