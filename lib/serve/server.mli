(** The analysis server: a {!Registry.t} of loaded programs, per-client
    {!Session.t} state machines, and the request executor behind both
    transports ([sidefx serve] stdio and the Unix-socket loop).

    {b Concurrency model.}  Requests are handled in {e batches} (one
    stdio line is a batch of one; one socket select round yields one
    batch).  Within a batch, maximal runs of program-scoped requests
    ([query]/[edit]/[explain]) are grouped by program name and the
    groups execute concurrently on the server's [Par.Pool] — distinct
    programs never share a session or an engine, and the base analyses
    are distinct lazies, so groups touch disjoint mutable state (the
    session table itself is mutex-guarded).  Registry-mutating and
    global requests ([load]/[unload]/[stats]/[shutdown], and malformed
    lines) are barriers: they run alone, in arrival order.  Responses
    always come back in arrival order, so per-client request order is
    preserved.

    {b Telemetry.}  Every request increments [serve.requests] and
    [serve.requests.<class>] ([class] per {!Protocol.op_class}),
    failures increment [serve.errors], latency lands in the
    [serve.<class>_s] histogram, and each execution runs under a
    [serve.<class>] span. *)

type t

val create : ?pool:Par.Pool.t -> unit -> t
(** The pool (optional) is used for batch fan-out and stays owned by
    the caller. *)

val registry : t -> Registry.t

val load_file : t -> name:string -> path:string -> (unit, string) result
(** Pre-load a program from disk (the [--load NAME=FILE] flag). *)

val stopping : t -> bool
(** True once a [shutdown] request has been executed. *)

val handle_line : t -> client:int -> string -> string
(** Execute one request line and return the one response line (no
    trailing newline).  Never raises: internal exceptions become
    structured error responses. *)

val handle_batch : t -> (int * string) list -> string list
(** Execute a batch of [(client, request-line)] pairs and return the
    response lines in arrival order (see the concurrency model
    above). *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** The stdio transport: one request line in, one response line out
    (flushed), until EOF or [shutdown]. *)

val serve_socket : ?max_clients:int -> t -> path:string -> unit
(** The Unix-socket transport: accept clients at [path] (unlinked
    first, and on exit), read request lines from every ready
    connection into one batch per select round, write responses back,
    until [shutdown].  [max_clients] (default 512, bounded by the
    [select] FD limit) — connections beyond it are refused. *)
