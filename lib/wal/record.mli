(** Write-ahead log records.

    The log exists for two reasons.  First, ordinary durability: physical
    redo of committed work (see {!Recovery}).  Second, the paper's
    "buffer the changes in the recovery log" *alternative* refresh method
    needs a log to cull committed, table-relevant changes from — we
    implement that method faithfully (including its costs) to compare it
    against base-table annotation. *)

type txn_id = int

type t =
  | Begin of { txn : txn_id }
  | Commit of { txn : txn_id }
  | Abort of { txn : txn_id }
  | Insert of { txn : txn_id; table : string; addr : Snapdiff_storage.Addr.t;
                tuple : Snapdiff_storage.Tuple.t }
  | Delete of { txn : txn_id; table : string; addr : Snapdiff_storage.Addr.t;
                old_tuple : Snapdiff_storage.Tuple.t }
  | Update of { txn : txn_id; table : string; addr : Snapdiff_storage.Addr.t;
                old_tuple : Snapdiff_storage.Tuple.t;
                new_tuple : Snapdiff_storage.Tuple.t }
  | Checkpoint of { active : txn_id list }
      (** legacy sharp checkpoint marker (kept for existing logs/tests) *)
  | Begin_checkpoint of { active : txn_id list }
      (** opens a fuzzy checkpoint: the buffer pool's dirty pages as of this
          LSN will all reach the store before the matching
          [End_checkpoint]; [active] lists transactions in flight *)
  | End_checkpoint of { begin_lsn : int }
      (** closes the fuzzy checkpoint begun at [begin_lsn]; once this record
          is durable, the log below [begin_lsn] is no longer needed for
          restart redo *)

val txn_of : t -> txn_id option
(** [None] for the checkpoint records. *)

val table_of : t -> string option

val pp : Format.formatter -> t -> unit

val size : t -> int
(** The exact number of bytes {!write} writes. *)

val write : bytes -> int -> t -> int
(** [write b off r] writes [r] at [off] of a buffer the caller sized
    ({!size}) and returns the offset just past it. *)

val read : Snapdiff_storage.Codec.Cursor.t -> t
(** The record at the cursor.  Raises [Failure] on a bad tag or
    truncation, and nothing else. *)
