(** Asynchronous fuzzy checkpoints.

    A checkpoint bounds restart redo work and enables WAL segment
    truncation without ever stalling updaters: it brackets a
    page-at-a-time flush of the buffer pool's dirty pages between
    [Begin_checkpoint] and [End_checkpoint] records, yielding between
    pages.  Once the [End_checkpoint] is durable, redo never needs log
    records below the checkpoint's begin LSN — that LSN is the
    {e truncation floor} the caller may pass to {!Wal.truncate_before},
    which stops short of it at any live log reader's hold (see
    [Snapdiff_core.Manager.checkpoint]). *)

type stats = {
  begin_lsn : Wal.lsn;  (** LSN of the Begin_checkpoint record: the redo floor *)
  end_lsn : Wal.lsn;  (** LSN of the End_checkpoint record *)
  pages_flushed : int;  (** pages actually written (still dirty when reached) *)
  bytes_written : int;
      (** bytes written back — sub-page dirty-range write-back makes this
          typically much less than [pages_flushed * page_size] *)
  pages_snapshotted : int;  (** dirty pages in the begin-LSN snapshot *)
}

val run :
  wal:Wal.t ->
  pool:Snapdiff_storage.Buffer_pool.t ->
  ?active:Record.txn_id list ->
  ?yield:(unit -> unit) ->
  unit ->
  stats
(** Run one fuzzy checkpoint of [pool] against [wal].  [active] (default
    empty) lists in-flight transactions for the Begin_checkpoint record.
    [yield] is called after each page write-back — the interleave point
    where updaters may freely re-dirty pages (including already-flushed
    ones); the checkpoint remains correct because the log at and above
    [begin_lsn] is retained and redo is idempotent.  The log is fsynced
    after the End_checkpoint record, so the returned [begin_lsn] is a
    durable truncation floor. *)
