(** One client's editing session on one loaded program.

    A session is created on the client's first [edit] (queries without
    a session read the registry's shared base analysis directly) and
    wraps an {!Incremental.Engine.t} adopted from the base via
    {!Incremental.Engine.of_analysis}, which computes nothing: the
    engine diffs its first edit against the base record itself.  Sessions are keyed by
    [(client, program, session-name)] in the server; distinct keys
    never share an engine, which is what makes concurrent sessions on
    distinct programs safe to run in one pool batch. *)

type t = {
  program : string;  (** Registry name this session edits. *)
  name : string;  (** Session name ([""] is the client default). *)
  engine : Incremental.Engine.t;
  base_lint : Lint.Diagnostic.t list Lazy.t;
      (** The registry entry's {!Registry.entry.base_lint}. *)
}

val create : Registry.entry -> name:string -> t
(** Forces the entry's base analysis (first session on a program pays
    the batch run if no query did yet) and adopts it. *)

val analysis : t -> Core.Analyze.t
val edits : t -> int

val lint : t -> Lint.Diagnostic.t list
(** Every rule's findings on the session's program, at dummy
    positions.  Before the first edit these are the registry's
    {!Registry.entry.base_lint} (the engine still holds the base
    analysis, and the registry linted it with the same rules at the
    same positions), so a fresh session's first [lint] edit or
    [lint-delta] costs no relint of the base; afterwards
    {!Incremental.Engine.lint}. *)
