(** Metrics registry: counters, gauges, and log-bucketed latency
    histograms, keyed by name.

    Components attach to the process-global registry ({!global}) by
    fetching their handles once at module or instance initialisation —
    [Metrics.counter Metrics.global "bufferpool.hits"] — and then bumping
    the returned handle on the hot path, which is a single unboxed field
    update (no lookup, no allocation).  Handles with the same name share
    one metric, so per-instance components (buffer pools, links) aggregate
    naturally.

    Histograms bucket by powers of two (bucket 0 is [\[0,1)], bucket [i]
    is [\[2^(i-1), 2^i)]) and additionally keep exact n/mean/min/max via
    {!Snapdiff_util.Stats.Accumulator}; quantiles are interpolated inside
    the target bucket, so p50/p95/p99 carry at most one octave of error
    and are exact at the extremes. *)

type counter

type gauge

type histogram

type t

exception Kind_mismatch of string
(** A name is already registered with a different metric kind. *)

val create : unit -> t

val global : t
(** The process-global registry.  Everything the engine instruments lands
    here; {!reset} it between measurement windows. *)

val counter : t -> string -> counter
(** Get or create.  Raises {!Kind_mismatch} if [name] is already a gauge
    or histogram. *)

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val set : gauge -> float -> unit

val shift : gauge -> float -> unit
(** Add a (possibly negative) delta to the gauge. *)

val level : gauge -> float

val observe : histogram -> float -> unit
(** Record a non-negative sample (negative samples clamp to 0). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and records its wall-clock duration in
    microseconds (observed even if [f] raises) — e.g. the fleet
    scheduler's per-tick decision cost. *)

val observations : histogram -> int

val hist_mean : histogram -> float

val hist_min : histogram -> float

val hist_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in [\[0,1]]; 0.0 when empty.  Raises
    [Invalid_argument] on [q] out of range. *)

val counter_value : t -> string -> int
(** 0 when the name is absent or not a counter. *)

val names : t -> string list
(** All registered metric names, sorted. *)

val reset : t -> unit
(** Zero every metric in place; handles already held stay valid. *)

val dump : Format.formatter -> t -> unit
(** Human-readable listing, one metric per line, sorted by name. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (shared with
    {!Trace}'s JSON-lines sink). *)

val dump_json : t -> string
(** One JSON object:
    [{"counters": {..}, "gauges": {..}, "histograms": {name: {n, mean,
    p50, p95, p99, min, max}}}]. *)
