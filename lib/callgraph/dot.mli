(** Graphviz (DOT) export of the two multi-graphs, for inspecting what
    the analysis actually runs on.

    Call multi-graph: one node per procedure (labelled with name and
    nesting level), one edge per call site (labelled with the site id).
    Binding multi-graph: one node per by-reference formal (labelled
    [proc.formal]), one edge per binding event (labelled with its site;
    dashed when the binding passes an array element). *)

type highlight = {
  pure_procs : int list;
      (** Pids drawn filled green — procedures with no global side
          effects (the lint engine's [pure-proc] verdict). *)
  inflated_sites : int list;
      (** Site ids drawn red — call edges whose [MOD] was strictly
          enlarged by the alias closure ([alias-inflation]). *)
}
(** Analysis-derived decoration for {!call_graph}.  The fields are
    supplied by [Lint.Engine.highlight]; this module only knows how to
    colour, not why. *)

val call_graph : ?highlight:highlight -> Call.t -> string

val binding_graph : Binding.t -> string

val write_file : string -> string -> unit
(** [write_file path dot] — tiny convenience used by the CLI. *)
