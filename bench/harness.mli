(** Pieces every [bench/] harness shares: one best-of-N wall-clock
    timer and one writer for the [BENCH_*.json] files. *)

val timed : int -> (unit -> 'a) -> float
(** [timed reps f] is the least wall-clock seconds of [reps] runs of
    [f]. *)

val write_json : string -> (string * Obs.Json.t) list -> unit
(** [write_json file fields] writes [file] as one JSON object: [fields]
    in their order, then every top-level key of [file]'s current object
    that [fields] does not name (earlier measurements such as
    [before]), in their order there.  Reports the write on stdout. *)
