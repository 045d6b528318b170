(** The write-ahead log manager.

    Records are appended to a single logical log; an LSN is the byte offset
    of a record in the log image.  The log always lives in memory as a
    growing byte buffer (every record is stored encoded, so LSNs and sizes
    are real).  With the [File] backend each append is additionally written
    to a segment file as a checksummed, length-prefixed frame, and Commit
    records are made durable by {e group commit}: up to
    [group_commit_window] commits share one [fsync].  {!open_file} rebuilds
    the in-memory image from the segment, tolerating (and trimming) a torn
    tail left by a crash mid-append. *)

type t

type lsn = int

type backend =
  | Memory  (** process-memory only: no durability *)
  | File of string  (** segment file at this path; durable appends *)

val start_lsn : lsn
(** LSN of the first record (0). *)

val create : ?backend:backend -> ?group_commit_window:int -> unit -> t
(** [create ()] is the in-memory log.  [create ~backend:(File path) ()]
    starts a {e fresh} segment at [path] (truncating any existing file);
    use {!open_file} to recover an existing segment.
    [group_commit_window] (default 8, must be >= 1; ignored by [Memory])
    is the number of Commit records that share one fsync: 1 means every
    commit syncs.  Raises [Invalid_argument] on a window < 1. *)

val open_file : ?group_commit_window:int -> string -> t
(** Open (or create) the segment file at a path and rebuild the log from
    it.  Frames are verified in order (length bounds,
    {!Snapdiff_storage.Codec.checksum} of the payload, exact decode); at
    the first invalid frame the file is truncated to the last valid
    record — the torn tail a crash mid-append leaves is silently trimmed
    (counted by the [wal.torn_tails] metric) and the durable prefix is
    the recovered log.  Raises [Failure "Wal.open_file: bad segment
    magic"] if the file exists but does not start with the magic
    [WALSEG02], among them a [WALSEG01] segment, whose records were
    summed under the older FNV-1a rule. *)

val backend : t -> backend

val group_commit_window : t -> int
(** 1 for [Memory] logs. *)

val sync : t -> unit
(** Force everything appended so far to stable storage (one fsync if
    anything is pending; no-op for [Memory] or an already-synced file).
    Closes out a partial group-commit batch. *)

val close : t -> unit
(** {!sync} then release the file descriptor.  No-op for [Memory].  The
    log remains readable in memory after close; further appends on a
    closed file-backed log raise. *)

val fsyncs : t -> int
(** Real fsyncs issued on this log's segment (0 for [Memory]).  The
    process-wide [wal.fsyncs] metric aggregates across logs. *)

val durable_end_lsn : t -> lsn
(** One past the last byte known to have reached stable storage —
    advanced by every fsync: a group-commit window completing, {!sync},
    {!truncate_before}'s segment rewrite, {!close}.  Group commit means
    {!append} can acknowledge a [Commit] record whose LSN is still at or
    above this horizon; such a commit may vanish in a crash until the
    window fills or the caller forces {!sync}.  A caller needing
    per-commit durability compares the commit's LSN against this (or just
    calls {!sync}).  For [Memory] logs it equals {!end_lsn} trivially —
    there is no segment to lag behind — but a memory log has no crash
    durability at all. *)

val append : t -> Record.t -> lsn
(** Returns the LSN assigned to this record.  On a file-backed log the
    frame is written immediately; it is durable after the enclosing group
    commit's fsync (a [Commit] record completing the window, or {!sync}).
    {b A successful return therefore does not imply durability}: up to
    [group_commit_window - 1] acknowledged commits can be lost in a
    crash.  See {!durable_end_lsn}. *)

val end_lsn : t -> lsn
(** One past the last record: the LSN the next append will get. *)

val last_lsn_for : t -> table:string -> lsn option
(** LSN of the latest Insert/Delete/Update record naming [table], or
    [None] if the table never appeared in the log.  Maintained on append
    (and rebuilt by {!open_file}).  {!truncate_before} clamps
    stale entries up to the new {!oldest_retained}, so the returned LSN is
    always scannable ({!iter_from} never raises on it) and
    [last_lsn_for t ~table < Some lsn] remains a sound "no changes to
    [table] since [lsn]" test even after the records themselves were
    discarded: clamping can only force a conservative scan of a suffix
    with no matching records, never skip real changes.  The chunked
    refresh catch-up phase uses it to skip the log-tail scan entirely when
    its base table was quiescent. *)

val oldest_retained : t -> lsn
(** Smallest LSN still in the log ({!start_lsn} until the first
    {!truncate_before}).  A reader whose cursor is below this cannot be
    served — the paper: "one could bound the buffering required and
    transmit the entire (restricted) base table if the last refresh of the
    snapshot precedes the earliest retained changes". *)

(** {1 Holds}

    A log record lives while a hold keeps it.  Every reader of the log's
    history takes a hold naming the oldest LSN it still needs — a chunked
    refresh scan's catch-up start ([scan:<base>]), a log-based snapshot's
    cursor ([cursor:<snap>]), a running checkpoint ([checkpoint:<base>])
    — and {!truncate_before} never discards a record at or above the
    lowest live hold.  The holder string is a diagnostic label; it names
    the hold in {!holders} and in what a truncation reports.

    Holds are taken and released from any domain; the registry has its
    own lock. *)

type hold

val hold : t -> holder:string -> lsn -> hold
(** Take a hold on the records from the given LSN on.  Release it with
    {!release_hold}. *)

val move_hold : hold -> lsn -> unit
(** Set the LSN a hold keeps — a log cursor advancing after a committed
    refresh.  Moving a released hold has no effect on truncation. *)

val release_hold : hold -> unit
(** Drop the hold.  Idempotent. *)

val with_hold : t -> holder:string -> lsn -> (unit -> 'a) -> 'a
(** Run the function under a hold, releasing it on return and on an
    exception. *)

val holders : t -> (string * lsn) list
(** [(holder, lsn)] of every live hold, ascending by LSN, then holder. *)

val truncation_floor : t -> lsn -> lsn * (string * lsn) list
(** [truncation_floor t ceiling] is where {!truncate_before}[ t ceiling]
    would stop — the ceiling, lowered to the lowest live hold, but never
    below {!oldest_retained} — and the holds below the ceiling, ordered
    as {!holders}.  Changes nothing. *)

val truncate_before : t -> lsn -> (string * lsn) list
(** [truncate_before t ceiling] discards the records below the ceiling,
    but stops at the lowest live hold, and returns the holds below the
    ceiling (what stopped it; [[]] when it reached the ceiling), ordered
    as {!holders}.  The ceiling must lie in
    [[oldest_retained t, end_lsn t]].  The floor it stops at must be a
    record boundary previously returned by {!append}/iteration.  LSNs of
    retained records are unchanged; per-table latest-LSN entries below
    the new base are clamped to it (see {!last_lsn_for}).  On a
    file-backed log the segment is rewritten {e atomically} — written to
    a sibling [.tmp] file, fsynced, renamed over the old path, directory
    fsynced — so a crash mid-truncation leaves either the complete old
    segment or the complete new one, never a partial overwrite that
    recovery would mistake for a torn tail ({!open_file} discards any
    leftover [.tmp]).  Raises [Failure] on a bad or mid-record LSN. *)

val record_count : t -> int

val byte_size : t -> int

val read : t -> lsn -> Record.t * lsn
(** The record at an exact LSN and the next LSN.  Raises [Failure] on a
    bad LSN. *)

val iter_from : t -> lsn -> (lsn -> Record.t -> unit) -> unit
(** All records with LSN >= the given one, in order. *)

val fold_from : t -> lsn -> init:'a -> f:('a -> lsn -> Record.t -> 'a) -> 'a

val to_list : t -> (lsn * Record.t) list
