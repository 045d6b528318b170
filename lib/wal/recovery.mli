(** Log-driven recovery and change extraction.

    {!redo} rebuilds table state by physically replaying the committed work
    in the log (insert-at-rid / update / delete), the classic redo pass.

    {!net_changes} is the machinery behind the paper's "use the recovery
    log as the change buffer" alternative refresh method: scan the log from
    the snapshot's last-refresh point, keep only *committed* records for
    the table of interest, and fold multiple changes to the same address
    into their net effect.  The returned {!scan_stats} expose exactly the
    costs the paper warns about (the whole log tail is scanned; only a
    small fraction is relevant). *)

open Snapdiff_storage

val redo : Wal.t -> (string -> Heap.t option) -> unit
(** [redo log resolve] replays all committed work retained in the log onto
    the heaps returned by [resolve]; tables that resolve to [None] are
    skipped.  The heaps are expected to be empty (fresh stores after a
    crash) — or, when the log has been truncated, restored from a
    checkpoint taken at or after {!Wal.oldest_retained}. *)

type net = {
  before : Tuple.t option;
      (** state when the window opened; [None] = did not exist *)
  after : Tuple.t option;  (** committed state now; [None] = deleted *)
}

type scan_stats = {
  records_scanned : int;  (** log records examined *)
  bytes_scanned : int;
      (** log bytes actually read — measured from [since] clamped into
          [{!Wal.oldest_retained}, {!Wal.end_lsn}], so truncation can never
          make this negative or overstate the scan *)
  relevant : int;  (** committed records touching the requested table *)
}

val net_changes :
  ?keep_unchanged:bool ->
  Wal.t -> table:string -> since:Wal.lsn -> (Addr.t * net) list * scan_stats
(** Net committed effect per address, in address order.  Addresses whose
    before and after states are equal (including inserted-then-deleted
    inside the window) are omitted, unless [keep_unchanged] (default
    [false]) asks for every address the window touched — a reader that
    may have seen an intermediate state needs those too.  Uncommitted and aborted transactions
    are excluded (a commit record must appear in the log).  The before
    value is what lets a refresh method decide whether a deleted or
    updated entry *used to* qualify for a snapshot.  A [since] older than
    {!Wal.oldest_retained} (the log was truncated since the snapshot's
    last refresh) scans from the oldest retained record instead of
    failing. *)
