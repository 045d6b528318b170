(** Buffer pool: a fixed-capacity LRU cache of page frames over a
    {!Page_store}.

    Callers obtain a {!Page.t} view of a frame with {!with_page} (pin,
    use, unpin) and mark it dirty if they modified it; dirty frames are
    written back on eviction or {!flush_all}.

    A miss allocates no page buffer once the pool is full: the page is
    read ({!Page_store.read_into}) straight into the evicted frame's own
    buffer, under either policy, so a pool allocates at most [frames]
    page buffers over its lifetime.

    The pool is domain-safe for concurrent readers: the resident-page
    table is lock-striped by page number, so domains pinning distinct
    pages take disjoint locks, while misses, eviction, and whole-pool
    operations serialize behind a global lock.  The LRU victim is chosen
    by a scan of a compact array of the resident frames, which only the
    global lock's holder changes, so the scan takes no stripe lock; the
    choice is then confirmed under the victim's one stripe lock (still
    unpinned, not touched since the scan) and the scan repeats if a
    concurrent hit got there first.  No frame is ever evicted while
    pinned, and {!stats} counters are exact under concurrency.  Run on a
    single domain the pool's observable behavior (hit/miss/eviction
    sequence, LRU victims, stats) is identical to the unstriped design. *)

type t

type policy =
  | Lru  (** exact least-recently-used among unpinned frames (default) *)
  | Second_chance  (** clock sweep with reference bits — cheaper bookkeeping *)

val create : ?frames:int -> ?policy:policy -> Page_store.t -> t
(** [frames] defaults to 128.  Raises [Invalid_argument] if [frames < 1]. *)

val store : t -> Page_store.t

val with_page : t -> int -> (Page.t -> [ `Clean | `Dirty ] * 'a) -> 'a
(** [with_page t n f] pins page [n], applies [f] to its in-frame image, and
    unpins.  If [f] returns [`Dirty] the frame is marked dirty.  Nested
    [with_page] on distinct pages is allowed; re-entering the same page is
    allowed and pins are counted.

    The {!Page.t} handed to [f] (and its {!Page.bytes}) is valid only
    inside [f]: once unpinned the frame may be evicted and its buffer
    reused for another page, so copy out anything needed afterwards.

    Raises [Page_store.Bad_page] for an unknown page — before any frame is
    evicted or any counter moves — and [Failure] if every frame is
    pinned. *)

val allocate_page : t -> int
(** Allocate a fresh page in the store and return its number. *)

val flush_all : t -> unit
(** Write back every dirty frame (frames stay cached).  Write-back is
    range-aware: when a page's tracked dirty ranges ({!Page.dirty_ranges})
    cover well under the full page, only those ranges are written
    ({!Page_store.write_range}), cutting write amplification. *)

val dirty_pages : t -> int list
(** Page numbers of currently dirty frames, ascending — the work list a
    fuzzy checkpoint snapshots before flushing page by page. *)

val writeback_page : t -> int -> int
(** Write back one page's frame if it is cached and dirty; returns the
    bytes written (0 if clean or not resident).  The checkpoint's unit of
    progress: flushing one page at a time leaves room to interleave
    updaters between pages. *)

val invalidate : t -> unit
(** Drop all frames (must be none pinned); dirty frames are flushed first.
    Used by crash-recovery tests to simulate losing volatile state. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  writeback_bytes : int;  (** bytes actually written back *)
  writeback_bytes_saved : int;
      (** page bytes the range-aware write-back avoided writing *)
}

val stats : t -> stats
