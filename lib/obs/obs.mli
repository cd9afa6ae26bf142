(** Telemetry core: metric registry, hierarchical tracing spans, and
    machine-readable sinks.

    The paper's results are complexity bounds stated in operation counts
    — [O(Nβ + Eβ)] boolean steps for Figure 1, [O(N + E)] bit-vector
    steps for [findgmod] — so the repository needs first-class counting
    and timing to witness them.  This module is the substrate: every
    analysis phase runs under a {!Span}, every cost unit the paper
    reasons about is a registered {!Metric}, and both serialise to a
    stable hand-rolled {!Json} encoding consumed by [sidefx profile
    --json] and [BENCH_linearity.json].

    Design constraints, in order:

    - {e zero dependencies} — stdlib only, so every library (including
      [bitvec], the bottom of the dependency stack) can link it;
    - {e no hot-path cost when idle} — incrementing a pre-registered
      counter handle is one field mutation; opening a span when tracing
      is disabled is a single branch on one [bool ref];
    - {e reset-free} — measurements are snapshot/delta pairs against
      monotonic counters, so nested or overlapping measurements never
      clobber each other, as a global reset protocol would. *)

(** Minimal JSON tree, encoder and parser.

    The encoder is stable: object fields are emitted in the order
    given, floats with ["%.9g"], and re-encoding a parsed encoding
    reproduces it byte for byte ([to_string (parse (to_string j)) =
    to_string j]).  The parser accepts standard JSON and exists so the
    repository can validate its own output ([sidefx json-validate],
    [make profile-smoke]) without an external [jq]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line encoding. *)

  val pp : Format.formatter -> t -> unit
  (** Same encoding, onto a formatter. *)

  val parse : string -> (t, string) result
  (** Parse one JSON value (surrounding whitespace allowed; trailing
      non-whitespace is an error).  Errors carry a character offset. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

(** Named monotonic counters and gauges.

    Registration returns a {e handle}; the hot path ([incr]/[add]) is
    an [O(1)] update of the calling domain's own storage, so solvers
    register at module initialisation and count inside inner loops.
    Metrics are process-global and never reset; consumers measure by
    taking a {!snapshot} before and reading {!delta} after.

    {b Domain safety.}  Counters are {e sharded per domain}: each
    domain increments a private shard (no lock, no cache-line
    contention), and {!value}/{!snapshot} aggregate by summing every
    shard ever created — shards of terminated domains are retained, so
    no count is ever lost.  The aggregate is exact at any point that
    {e happens-after} all writers' increments; a [Par.Pool] batch join
    is such a point, which is how [bitvec.vector_ops]/[word_ops] stay
    exact under the parallel wavefront solver.  An aggregate read that
    races a worker mid-batch may miss in-flight increments (it never
    invents counts).  Gauges remain plain last-write-wins fields and
    should be [set] from one domain at a time (all in-tree gauges are
    written by the main domain only). *)
module Metric : sig
  type kind =
    | Counter  (** Monotonic; observed as a delta between snapshots. *)
    | Gauge  (** Last-write-wins level; observed as its current value. *)

  type handle

  val counter : string -> handle
  (** Register (or retrieve) the counter of that name.  Raises
      [Invalid_argument] if the name is registered as a gauge. *)

  val gauge : string -> handle
  (** Register (or retrieve) the gauge of that name. *)

  val incr : handle -> unit
  val add : handle -> int -> unit

  val set : handle -> int -> unit
  (** Overwrite the value (intended for gauges).  On a counter this
      adjusts the calling domain's shard so the aggregate becomes the
      given value — only meaningful with no concurrent writers. *)

  val value : handle -> int
  val name : handle -> string
  val kind : handle -> kind

  val find : string -> handle option
  val all : unit -> (string * kind * int) list
  (** Every registered metric, in registration order. *)

  type snapshot
  (** An immutable capture of all counter values at one instant. *)

  val snapshot : unit -> snapshot

  val delta : since:snapshot -> (string * int) list
  (** One entry per registered metric, registration order, each
      reporting [current - at-snapshot] (metrics registered after the
      snapshot count from zero).  For gauges the difference attributes
      the value to whichever measurement interval set it. *)

  val value_since : since:snapshot -> handle -> int
  (** One metric's delta. *)

  (** {2 Latency histograms}

      Log2-bucketed duration distributions, for the per-phase,
      per-edit and per-query latency stories that single counters
      cannot tell.  Histograms live in a registry of their own:
      {!snapshot}/{!delta} (and therefore span metric attribution and
      every op-count contract) are unaffected by their existence.
      Bucket [0] holds observations under 2 ns; bucket [i] holds
      durations in [[2^i, 2^(i+1))] ns; the last bucket absorbs
      overflow. *)

  type histogram

  val histogram : string -> histogram
  (** Register (or retrieve) the histogram of that name. *)

  val observe : histogram -> float -> unit
  (** Record one duration, in seconds (negatives clamp to zero). *)

  val observe_ns : histogram -> int -> unit
  (** Record one duration, in nanoseconds. *)

  val hist_name : histogram -> string
  val hist_observations : histogram -> int
  val hist_sum_ns : histogram -> int

  val hist_nonzero_buckets : histogram -> (int * int) list
  (** [(lower_bound_ns, count)] for each non-empty bucket, ascending. *)

  val hist_quantile_ns : histogram -> float -> int
  (** [hist_quantile_ns h q] (with [q] clamped to [[0,1]]) is a
      conservative bucketed quantile: the upper bound (in ns) of the
      bucket containing the [ceil (q * n)]-th smallest observation, [0]
      when the histogram is empty.  Exact to one power of two and never
      under an actual observed latency — the resolution the server's
      per-request-class p50/p95/p99 stats report at. *)

  val find_histogram : string -> histogram option

  val histograms_in_order : unit -> histogram list
  (** Every registered histogram, in registration order. *)
end

(** Hierarchical tracing spans.

    [with_ "gmod" f] runs [f] and, when tracing is enabled, records its
    wall-clock time and the {!Metric} delta across it, nested under the
    enclosing span.  When tracing is disabled the call is a single
    branch and a tail call — no allocation, no clock read — so
    instrumented solvers cost nothing in benchmarks.

    {b Domain safety.}  The open-frame stack and the completed-root
    buffer are per domain, so a span opened inside a worker task nests
    under that worker's own frames and cannot corrupt the main trace;
    {!drain} and {!collect} observe the calling domain's roots only.
    The in-tree solvers open spans around whole phases — outside any
    pool task — so traces are unchanged by [--jobs].  The enabled flag
    is shared (atomic) across domains. *)
module Span : sig
  type gc = {
    minor_collections : int;  (** Delta across the span. *)
    major_collections : int;  (** Delta across the span. *)
    promoted_words : int;  (** Delta across the span. *)
    top_heap_words : int;
        (** Absolute high-water mark at close.  [0] on OCaml 5 until
            the shared major heap has actually grown — tiny runs live
            entirely in the minor heap. *)
  }
  (** [Gc.quick_stat] deltas attached to every span, so a trace shows
      where allocation pressure (and therefore collector time) lands —
      the memory half of the million-procedure story. *)

  type t = {
    name : string;
    start : float;  (** {!Clock} reading at open (seconds). *)
    elapsed : float;  (** Seconds. *)
    metrics : (string * int) list;
        (** {!Metric.delta} across the span, registration order. *)
    gc : gc;
    children : t list;  (** Sub-spans, in completion order. *)
  }

  val enabled : unit -> bool
  val set_enabled : bool -> unit

  val with_ : string -> (unit -> 'a) -> 'a
  (** Run a function under a span.  Exceptions propagate; the span is
      still closed and recorded. *)

  val collect : string -> (unit -> 'a) -> 'a * t
  (** [collect name f] forces tracing on, runs [f] under a root span
      [name] isolated from any surrounding trace, restores the previous
      tracing state, and returns the completed span.  This is the
      programmatic entry point ([sidefx profile], tests). *)

  val drain : unit -> t list
  (** Completed root spans, oldest first; clears the buffer.  Used by
      [--trace] to flush at command exit. *)

  val metric : t -> string -> int
  (** A metric's delta recorded on one span ([0] if absent). *)

  val find : t -> string -> t option
  (** First descendant span (depth-first, the span itself included)
      with that name. *)
end

(** The overridable time source: defaults to [Sys.time] (processor
    time — adequate for the single-threaded, CPU-bound phases measured
    here); hosts with better clocks may [set] one. *)
module Clock : sig
  val now : unit -> float
  val set : (unit -> float) -> unit
end

val pp_trace : Format.formatter -> Span.t list -> unit
(** Pretty phase table: indented span tree with per-span time, the two
    [bitvec] columns, and any other nonzero metric deltas. *)

val trace_json : Span.t list -> Json.t
(** The span tree as JSON: per span [name], [start_s], [elapsed_s],
    [metrics] (every registered metric, see {!Metric.delta}), [gc]
    and [children]. *)

val trace_events_json : Span.t list -> Json.t
(** The span tree as Chrome trace-event JSON (the
    [{"traceEvents": [...]}] format Perfetto and [chrome://tracing]
    load): one complete event (["ph":"X"]) per span, timestamps in
    microseconds relative to the earliest root, nonzero metric deltas
    and GC counters as [args]. *)

val histograms_json : unit -> Json.t
(** Every registered histogram: per name [count], [sum_ns] and
    [buckets] as [[lower_bound_ns, count]] pairs (non-empty buckets
    only, ascending), so the encoding is stable and compact. *)

val metrics_json : unit -> Json.t
(** Current absolute value of every registered metric. *)
