(** Annotated base tables.

    A base table is a heap of user tuples extended with the two annotation
    fields of {!Annotations}, maintained in one of the two disciplines the
    paper develops:

    - {b Eager} ("Associating Empty Regions with Actual Entries"): every
      insert/update/delete keeps [__prevaddr]/[__timestamp] exact.  Inserts
      and deletes touch the *successor* entry too, which is the extra
      base-operation cost (and the concurrency hazard) the paper
      attributes to this scheme.
    - {b Deferred} ("Batch Maintenance of Empty Regions and Timestamps"):
      operations are oblivious to snapshots — inserts store NULL
      annotations, updates NULL the timestamp, deletes just delete — and
      the fix-up pass run during refresh ({!Fixup}) restores the fields.
      "It is the snapshot refresh operations which *should* bear the costs
      associated with maintaining the snapshot."

    The table optionally publishes exact old/new change records to
    subscribers (feeding the *ideal* algorithm's change log and ASAP
    propagation) and writes conventional WAL records (feeding the
    log-based alternative and crash recovery).  Those are competing
    mechanisms from the paper's "alternative refresh methods" section —
    a production system would enable only one. *)

open Snapdiff_storage
open Snapdiff_txn

type mode = Eager | Deferred

type t

val create :
  ?mode:mode ->
  ?page_size:int ->
  ?frames:int ->
  ?wal:Snapdiff_wal.Wal.t ->
  name:string ->
  clock:Clock.t ->
  Schema.t ->
  t
(** [create ~name ~clock user_schema] builds an empty annotated table over
    a private in-memory store.  [mode] defaults to [Deferred] (the paper's
    final algorithm).  The user schema must not already contain annotation
    columns.

    When [wal] is file-backed with group commit, each mutation's
    autocommit is acknowledged before its fsync: it is durable only once
    its group-commit window fills or [Wal.sync] runs — see
    {!Snapdiff_wal.Wal.durable_end_lsn} for the precise contract. *)

val on_pool :
  ?mode:mode ->
  ?wal:Snapdiff_wal.Wal.t ->
  name:string ->
  clock:Clock.t ->
  Snapdiff_storage.Buffer_pool.t ->
  Snapdiff_storage.Schema.t ->
  t
(** Attach to an existing (possibly populated, possibly file-backed)
    store: existing entries — with whatever annotations they carry — are
    adopted as-is, so a durable base table survives restarts and its next
    differential refresh proceeds from the persisted annotations.  Pass
    the same user schema the table was created with. *)

val flush : t -> unit
(** Flush the underlying buffer pool to the store. *)

val pool : t -> Snapdiff_storage.Buffer_pool.t
(** The table's buffer pool — what a fuzzy checkpoint walks. *)

val name : t -> string

val mode : t -> mode

val wal : t -> Snapdiff_wal.Wal.t option

val clock : t -> Clock.t

val user_schema : t -> Schema.t

val count : t -> int

val mutations : t -> int
(** Total inserts+updates+deletes since creation (cost-model input). *)

type subscription
(** Handle to an observer registration, for {!unsubscribe}. *)

val subscribe : t -> (Snapdiff_changelog.Change_log.change -> unit) -> subscription
(** Change records carry {b user} tuples (annotations stripped). *)

val unsubscribe : t -> subscription -> unit
(** Detach a previously registered observer.  Unknown handles are
    ignored. *)

(** {1 Operations} (user-schema tuples) *)

val insert : t -> Tuple.t -> Addr.t

val update : t -> Addr.t -> Tuple.t -> unit
(** Raises [Not_found] if no live entry at the address. *)

val delete : t -> Addr.t -> unit
(** Raises [Not_found] if no live entry at the address. *)

val get : t -> Addr.t -> Tuple.t option

val get_annotations : t -> Addr.t -> Annotations.t option

val to_user_list : t -> (Addr.t * Tuple.t) list
(** Live entries in address order. *)

(** {1 Scan-level access} (refresh algorithms and fix-up) *)

val iter_stored : t -> (Addr.t -> Tuple.t -> unit) -> unit
(** Address-order scan of stored (annotated) tuples.  The callback may call
    {!set_stored} or {!set_annotations} on the entry it is visiting. *)

(** {2 Page summaries}

    Per-page acceleration metadata for the pruned refresh scan: a summary
    is recorded by a scan that just decoded the whole page (so it is exact
    by construction), and removed — never patched — by any mutation that
    touches the page.  A present summary therefore {e proves} facts about
    the page: its live-entry count and address bounds, the stored PrevAddr
    of its first live entry, and the maximum annotation timestamp, with no
    NULL annotations anywhere on the page (pages with NULLs are simply not
    summarized).  Summaries live beside the buffer pool, like the heap's
    free-space map, so frame eviction does not lose them; they are {e not}
    persisted, so a table adopted with {!on_pool} starts bare and the
    first post-restart scan rebuilds them. *)

type page_summary = {
  sum_live : int;  (** live entries on the page *)
  sum_first_live : Addr.t;  (** lowest live address; meaningless if empty *)
  sum_last_live : Addr.t;  (** highest live address; meaningless if empty *)
  sum_first_prev : Addr.t;
      (** stored PrevAddr annotation of the first live entry — the hook for
          detecting a PrevAddr-chain anomaly at the page boundary *)
  sum_max_ts : Clock.ts;  (** max annotation timestamp on the page *)
  sum_token : int;
      (** identity of this summary's content, unique across table
          instances; a cached token that still matches proves the page is
          unchanged since the cache entry was made *)
}

val data_pages : t -> int

val page_summary : t -> int -> page_summary option

val record_page_summary :
  t ->
  page:int ->
  live:int ->
  first_live:Addr.t ->
  last_live:Addr.t ->
  first_prev:Addr.t ->
  max_ts:Clock.ts ->
  int
(** Install the summary a full decode of [page] just established and
    return its token.  If an identical summary is already recorded its
    existing token is returned unchanged, so concurrent snapshots'
    qualification caches survive each other's refreshes. *)

val load_page : t -> arena:Decode_arena.t -> page:int -> (Page.t -> bool) -> unit
(** One pin of data page [page]: snapshot it into [arena], then run [f]
    on the pinned page ({!Heap.load_page}).  [f] returns whether it
    wrote the page; if it did, the frame is marked dirty and the page's
    summary removed, once.  The scans' page load: {!Fixup} patches
    annotation tails inside [f], at most one pin per page. *)

val iter_addrs : t -> (Addr.t -> unit) -> unit
(** Live addresses in ascending order, from the address index: no page
    is read. *)

val read_record : t -> Addr.t -> bytes option
(** The entry's stored record, encoded ({!Heap.read_record}). *)

val set_stored : t -> Addr.t -> Tuple.t -> unit
(** Raw annotated-tuple write: re-validates, re-encodes and rewrites the
    whole record.  Does not tick the clock, fire observers, or write WAL
    (annotation maintenance is not a user change). *)

val set_annotations : t -> Addr.t -> Tuple.t -> prev:int -> ts:int -> int
(** [set_annotations t addr stored ~prev ~ts] rewrites the annotation
    fields of the entry at [addr], whose current stored tuple is [stored],
    to the raw values [prev]/[ts] ({!Annotations.null} = NULL), and returns
    the record bytes written.  It removes the page's summary, then patches
    the record's fixed-width tail in place ({!Heap.patch_tail}: 18 bytes,
    nothing decoded or re-encoded).  A row whose annotation values are
    not both [Value.Int] ({!Annotations.patchable}) is rewritten whole
    through {!set_stored} instead.  The one write path of the fix-up
    pass, the combined scan and eager successor maintenance; like
    {!set_stored} it is not a user change. *)

val last_addr : t -> Addr.t
(** Address of the last live entry, or {!Addr.zero} if empty. *)

val lock_resource : t -> Lock.resource
(** The table-level lock resource ("we must obtain a table level lock on
    the base table during the fix up (and refresh) procedures"). *)

val page_lock_resource : t -> int -> Lock.resource
(** The lock resource for one data page — the granule of the chunked
    refresh protocol: the scan holds short page S/X locks under a table
    IS/IX intention lock, while updaters take table IX + page IX + entry
    X, so a refresh only stalls updaters targeting the pages currently
    under the cursor. *)
