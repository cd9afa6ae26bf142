(** Lint findings: stable codes, severities, source spans, and the two
    reporters (text and stable JSON).

    Codes are {e stable identifiers} ([SFX001], [SFX002], …): once a
    code has shipped its meaning never changes, so editor integrations
    and suppression lists can key on it.  Messages and hints may be
    reworded freely.

    Ordering is deterministic: {!compare} sorts by source position,
    then code, scope, and message — so a finding list is reproducible
    across runs, rule orderings, and [--jobs] settings. *)

type severity =
  | Note  (** Informational — an opportunity, not a problem. *)
  | Warning  (** Likely mistake or precision loss. *)
  | Error  (** A real hazard (e.g. writes through aliased names). *)

val severity_to_string : severity -> string
(** ["note"] / ["warning"] / ["error"] — the JSON encoding and the
    [--severity-threshold] vocabulary. *)

val severity_of_string : string -> severity option

val severity_order : severity -> int
(** [Note < Warning < Error]; used by threshold comparisons. *)

type t = {
  code : string;  (** Stable code, [SFX001..]. *)
  rule : string;  (** Emitting rule's CLI name (e.g. ["pure-proc"]). *)
  severity : severity;
  loc : Frontend.Loc.t;  (** {!Frontend.Loc.dummy} when the program has no source. *)
  scope : string;  (** Enclosing procedure (the program name for globals). *)
  message : string;
  hint : string option;  (** A suggested fix, when the rule has one. *)
  witness : string list Lazy.t;
      (** Derivation evidence, one rendered line per step — filled by
          the rules when the analysis carries {!Core.Provenance}
          ([sidefx explain] and the analysis server), empty otherwise
          ([sidefx lint]).  Rendered on demand: only {!to_json}, {!pp},
          {!fact} and {!equal} force it, so a finding no report prints
          costs no witness.  Force it on one domain, never inside a
          {!Par.Pool} task (an OCaml lazy must not be forced by two
          domains at once).
          Not part of {!key} or {!compare}: a finding's identity does
          not depend on how it was derived. *)
}

val no_witness : string list Lazy.t
(** The empty witness, already forced. *)

val compare : t -> t -> int
(** Total order: [(loc.file, loc.line, loc.col, code, scope, message)]. *)

val equal : t -> t -> bool
(** Every field equal, witnesses included (forcing both).  Findings
    hold lazy values, so compare them with this, not with [=]. *)

val key : t -> string * string * string
(** Location-free identity [(code, scope, message)] — what diagnostic
    deltas match on (edits renumber ids and invalidate positions, but a
    finding that persists keeps its key). *)

val matches : code:string -> filter:string option -> t -> bool
(** Whether a finding answers the fact [diag:CODE[:FILTER]] of
    {!Core.Explain.parse_fact}: its code is [code] and, given a
    [filter], the filter is a substring of its scope or message. *)

val fact : t -> string * string list option
(** The finding as an entry of [explain --all]: [diag:CODE:SCOPE] with
    its witness, [None] when it has none (the {!Core.Explain.all_facts}
    shape). *)

val pp : Format.formatter -> t -> unit
(** One text-report entry: [file:line:col: severity[CODE] scope:
    message], the position omitted when it is {!Frontend.Loc.dummy},
    with an indented [hint:] line when present and indented [witness:]
    lines when the finding carries a derivation chain. *)

val to_json : t -> Obs.Json.t
(** Stable key set: [code], [rule], [severity], [file], [line], [col],
    [scope], [message], [hint] (JSON [null] when absent), [witness]
    (list of strings, empty when no provenance was recorded). *)
