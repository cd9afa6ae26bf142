(** The one delta encoder both query surfaces share.

    [sidefx edit] and the server's [edit] response must report the same
    GMOD/GUSE and lint deltas — two formatters would drift (the exact
    bug class the json-validate contract exists to catch), so the CLI's
    table/JSON rendering lives here and the server reuses the JSON
    half.

    Rows are keyed by {e name}, not id: procedure and variable ids are
    renumbered by [remove-proc], so a delta between two program
    versions only reads stably in names.  A {!snapshot} captures the
    name-keyed per-procedure sets of the pre-edit analysis, which is
    what lets a server session report deltas without retaining the
    whole pre-edit {!Core.Analyze.t} (the incremental engine replaces
    it in place). *)

type row = string * string list * string list
(** [(proc, added, removed)] — qualified variable names, sorted. *)

val set_names : Ir.Prog.t -> Bitvec.t -> string list
(** Qualified names of a variable set, sorted and deduplicated. *)

type snapshot
(** Name-keyed GMOD/GUSE sets of one analysis, captured before edits. *)

val snapshot : Core.Analyze.t -> snapshot
(** Renders each variable's name once, then each procedure's sets. *)

val rows : snapshot -> Core.Analyze.t -> row list * row list
(** The [GMOD] and the [GUSE] delta rows between the snapshot and an
    analysis: procedures present after with changed sets, plus one
    [(name, [], old)] row per vanished procedure whose set was
    non-empty.  Each list sorted; empty when nothing changed.  Each
    variable's name is rendered once per program, and each set's names
    are merged against the snapshot's in one pass. *)

val pp_rows : title:string -> Format.formatter -> row list -> unit
(** The CLI table: [== TITLE delta ==] then one [  name +{..} -{..}]
    line per row, or [  (none)]. *)

val rows_json : row list -> Obs.Json.t
(** Stable key set per row: [proc], [added], [removed]. *)

val lint_fields :
  (Lint.Diagnostic.t list * Lint.Diagnostic.t list) option ->
  (string * Obs.Json.t) list
(** The [lint_added]/[lint_removed] JSON fields for an optional
    {!Lint.Engine.delta} result; [[]] when lint was not requested. *)
