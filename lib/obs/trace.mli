(** Structured tracing: spans and instant events, globally enabled or
    disabled, timed by a monotonic microsecond clock.

    Records flow into a fixed-capacity ring buffer (oldest overwritten
    first) and, depending on the active sink, also to stderr or a
    JSON-lines file.  Tracing is off by default; when disabled,
    {!with_span} runs its thunk directly and {!event} is a single branch,
    so instrumented hot paths cost ~nothing — the repo's bench `obs`
    section measures the residue, and the refresh stream is byte-identical
    with tracing on or off (a qcheck property enforces this).

    Spans are recorded when they complete, so in the record stream a child
    span appears before its enclosing parent; consumers reconstruct
    nesting from [t_us]/[dur_us] intervals. *)

type kind = Span | Event

type record = {
  name : string;
  kind : kind;
  start_us : float;  (** microseconds since {!enable} *)
  dur_us : float;  (** 0 for events *)
  attrs : (string * string) list;
}

type sink =
  | Memory  (** ring buffer only *)
  | Stderr  (** ring buffer + one line per record on stderr *)
  | Jsonl of string  (** ring buffer + one JSON object per line to a file *)

val enable : ?capacity:int -> sink -> unit
(** Start tracing (default ring capacity 4096 records).  Replaces any
    previous sink and clears the ring. *)

val disable : unit -> unit
(** Stop tracing and close any file sink.  The ring contents survive for
    {!recent}. *)

val enabled : unit -> bool

val now_us : unit -> float
(** The monotonic clock used for span timing ([Unix.gettimeofday] clamped
    to be non-decreasing).  Usable whether or not tracing is enabled —
    metrics code uses it for duration histograms. *)

val clock_reads : unit -> int
(** {!now_us} calls so far, in this process: the instrumentation's own
    cost, about 40 ns a read on a current x86 host, is proportional to
    it.  Exact when one domain reads the clock.  Only tests read it (the
    [obs] test that bounds a refresh's reads per frame). *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a timed span.  When disabled, calls the thunk
    directly.  If the thunk raises, the span is still recorded with an
    ["error"] attribute and the exception is re-raised. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Record an instant event (no duration). *)

val recent : unit -> record list
(** Ring contents, oldest first. *)

val dropped : unit -> int
(** Records overwritten because the ring was full. *)

val record_count : unit -> int

val flush : unit -> unit
(** Flush a file sink (no-op otherwise). *)
