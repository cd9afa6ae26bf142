(** The §6 precision report: how often the regular-section lattice
    stays strictly between ⊥ and whole-array.

    Every (array, context) pair — [GMOD(p)], [GUSE(p)] for each
    procedure, sectioned [MOD(s)]/[USE(s)] for each call site — is
    classified as {e bottom} (the context never touches the array),
    {e partial} (some dimension is still [Exact]: a row, column or
    element — the information bit-level analysis destroys), or
    {e whole} (all-[Star], no better than a bit).  The partial share of
    the touched contexts is what regular sections buy on a program. *)

type counts = {
  bottom : int;
  partial : int;
  whole : int;
}

type row = {
  vid : int;
  rank : int;
  gmod : counts;  (** Over the per-procedure [GMOD] maps. *)
  guse : counts;
  site_mod : counts;  (** Over the per-site sectioned [MOD]/[USE]. *)
  site_use : counts;
}

val touched : counts -> int
(** Contexts that touch the array: [partial + whole]. *)

val report : Analyze_sections.t -> row list
(** One row per array variable, ascending id. *)

val pp : Ir.Prog.t -> Format.formatter -> row list -> unit
(** Aligned table with per-row and aggregate precision percentages. *)

val to_json : Ir.Prog.t -> row list -> Obs.Json.t
(** Stable shape: [{"program", "arrays": [{"array", "rank", "gmod":
    {"bottom","partial","whole"}, "guse": .., "site_mod": ..,
    "site_use": .., "touched", "partial", "precision_pct"}...],
    "totals": {...}}]. *)
