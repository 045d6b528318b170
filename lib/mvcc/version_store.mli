(** Multi-version snapshot store: the last K committed refresh epochs of
    one snapshot table, each an immutable consistent image, served to
    readers that never block on — and are never blocked by — a refresh
    commit.

    The paper's snapshot site exists to serve reads, but a framed-stream
    commit ({!Snapdiff_core.Snapshot_table.apply_framed}) mutates the one
    live image in place.  This store retrofits snapshot-isolation reads
    (Raad et al., {e On the Semantics of Snapshot Isolation}): every commit
    publishes an immutable version [(epoch, snaptime, contents view)] into
    a ring of the [retain] most recent epochs; a {!txn} pins one version
    and reads it for as long as it likes; a version leaves memory only
    when it has fallen off the ring {e and} its pin count is zero
    (refcount-gated reclamation — evicted-but-pinned versions park on a
    zombie list until released).

    {2 Materialization}

    Every frozen epoch owns a complete page table (the Naive strategy of
    {e A Comparative Study of Consistent Snapshot Algorithms for
    Main-Memory Database Systems}), so a read never chases an
    indirection.  The store records each mutation's post-image while it
    is active, and a freeze shares the previous freeze's immutable pages,
    rebuilding only the pages written since (one merge of the old sorted
    page with the sorted post-images).  Commit cost is O(rows changed
    since the last freeze) plus one O(pages) table copy.  Only a freeze
    with no base — the first, the first after the store was inert, or the
    first after an [`All] write — reads every live page through the host.
    [bench mvcc] measures the commit cost against concurrent pinned
    readers.

    {2 Default-path neutrality}

    With [retain = 1], no pinned reader, and no zombie, the store is
    {e inert}: {!write} runs the mutation directly (one boolean check, no
    lock, no post-image), and a commit just relabels the live head — the
    pre-existing in-place apply, byte-identical to the un-versioned
    table.  Recording engages only once a frozen version exists or a
    reader pins the head across a commit.

    {2 Concurrency}

    Version data is immutable once frozen; the ring, the pin counts and
    the recorded post-images are guarded by one mutex with O(page)
    critical sections.  Writers hold it per single mutation
    ({!write}), readers per page fetch — so a reader waits at most one
    entry-level mutation, never a whole commit, and a commit never waits
    for readers at all. *)

open Snapdiff_storage
open Snapdiff_txn

exception Epoch_not_retained of { requested : int; live_lo : int; live_hi : int }
(** A named epoch is not in the ring — never committed, or already
    reclaimed.  Carries the requested epoch and the currently retained
    range (oldest..newest; the head is epoch [-1] before the first
    commit).  Raised by {!pin_exn}; registered with a printer. *)

type page = (Addr.t * Tuple.t) array
(** One logical version page: the entries whose BaseAddr falls in the
    page's span, sorted ascending.  Immutable once frozen. *)

(** How the store reads the host table's live image.  All callbacks are
    invoked with the store lock held, so they see a consistent point in
    the host's mutation stream. *)
type live = {
  live_page : int -> page option;  (** current image of a pid; [None] = empty *)
  live_pids : unit -> int list;  (** non-empty pids, ascending *)
  live_get : Addr.t -> Tuple.t option;
  live_count : unit -> int;
}

type t

type txn
(** A read transaction pinned to one version. *)

val create : ?retain:int -> ?page_span:int -> live:live -> unit -> t
(** Defaults: [retain = 1] (the inert default path),
    [page_span = 64] addresses per logical page.  [retain] counts the
    live head, so [retain = k] keeps the last [k] committed epochs
    readable; values below 1 clamp to 1. *)

val retain : t -> int
val page_span : t -> int

val active : t -> bool
(** Whether mutations currently need interception (a frozen version, a
    pinned head, or a zombie exists).  Exposed for tests. *)

val set_reclaim_guard : t -> (epoch:int -> snaptime:Clock.ts -> bool) -> unit
(** Install the retention horizon's veto: [guard ~epoch ~snaptime] must
    return [false] while some live lease or the retention policy still
    needs that version, in which case eviction (ring trimming at commit,
    {!vacuum}) keeps the version in the ring instead of freeing it.
    Pinned versions are never freed regardless (they park on the zombie
    list until released) — the guard extends that protection to unpinned
    state the {!Snapdiff_lifecycle.Horizon} knows is still wanted.  The
    default guard always allows reclamation (refcount-only, the
    pre-lifecycle behaviour).  Called with the store lock held; the guard
    must not re-enter the store. *)

(** {1 Host write protocol}

    The host table routes every mutation through {!write}, and brackets a
    framed-stream commit replay with {!begin_commit} / {!end_commit}.
    Mutations between the two are the committing epoch's delta; mutations
    outside any commit are legacy raw writes, which remain visible to the
    live head (the head {e is} the live image) while frozen versions stay
    sealed off from them. *)

val write : t -> [ `Put of Addr.t * Tuple.t | `Del of Addr.t | `All ] -> (unit -> 'a) -> 'a
(** [write t target mutate] runs [mutate] and records [target]'s
    post-image for the next freeze, both under the store lock — unless the
    store is inert, in which case [mutate] runs directly.

    [target] names the mutation's post-image: [`Put (addr, row)] leaves
    [row] (the user tuple, which must not be mutated afterwards) at
    [addr]; [`Del addr] leaves nothing there; [`All] empties the table.
    Freezes are built from these post-images, so a host whose [mutate]
    does anything else corrupts later versions.  If [mutate] raises, the
    next freeze rebuilds from the live image. *)

val begin_commit : t -> unit
(** Freeze the live head into an immutable version (unless the inert fast
    path applies).  Must be paired with {!end_commit}. *)

val end_commit : t -> epoch:int -> snaptime:Clock.ts -> unit
(** Publish the just-replayed state as the new live head version and
    evict beyond [retain]; evicted-but-pinned versions become zombies. *)

(** {1 Read transactions} *)

val pin : ?epoch:int -> t -> txn option
(** Pin the named retained epoch, or the latest version when [epoch] is
    omitted.  [None] if that epoch is not in the ring (never committed,
    or already evicted).  Before the first commit the head carries
    epoch [-1]. *)

val pin_exn : ?epoch:int -> t -> txn
(** {!pin}, but a miss raises {!Epoch_not_retained} with the requested
    epoch and the live range instead of returning [None] — the typed
    surface the SQL [AS OF] path reports cleanly. *)

val release : txn -> unit
(** Idempotent.  Dropping the last pin of a zombie reclaims it.  Reading
    through a released transaction raises [Invalid_argument]. *)

val txn_epoch : txn -> int
val txn_snaptime : txn -> Clock.ts

val txn_pinned : txn -> bool
(** False after {!release}. *)

val get : txn -> Addr.t -> Tuple.t option

val iter : txn -> (Addr.t -> Tuple.t -> unit) -> unit
(** BaseAddr-ascending, at the pinned version.  The callback runs outside
    the store lock and must not mutate the host table. *)

val fold : txn -> init:'a -> f:('a -> Addr.t -> Tuple.t -> 'a) -> 'a

val count : txn -> int

val exists_in_range :
  txn -> ?lo:Addr.t -> ?hi:Addr.t -> f:(Tuple.t -> bool) -> unit -> bool

(** {1 Introspection} *)

val page_table : txn -> (int * page * int) list
(** The pinned version's non-empty logical pages, ascending pid, each with
    its encoded byte total ([8 + Tuple.encoded_size row] per row).  A
    frozen version returns its own table and the totals it carries,
    updated by merged deltas; the live head sums on the fly.  Exposed for
    tests. *)

type version_info = {
  vi_epoch : int;
  vi_snaptime : Clock.ts;
  vi_pins : int;
  vi_frozen : bool;  (** false only for the live head *)
}

val versions : t -> version_info list
(** The ring, newest first. *)

val zombie_count : t -> int
(** Evicted versions kept alive only by open pins. *)

val live_range : t -> int * int
(** Oldest and newest retained epoch (the ring's two ends). *)

(** {1 Vacuum}

    Horizon-driven reclamation, the per-store half of
    [Manager.vacuum]. *)

type vacuum_stats = {
  vac_examined : int;  (** eviction candidates considered *)
  vac_reclaimed : int;  (** versions freed (or would be, on a dry run) *)
  vac_zombied : int;  (** pinned candidates parked on the zombie list *)
  vac_kept : int;  (** unpinned candidates the horizon guard protected *)
  vac_bytes : int;  (** encoded bytes the freed versions held *)
}

val vacuum : ?older_than:Clock.ts -> ?dry_run:bool -> t -> vacuum_stats
(** Evict retained versions the horizon no longer needs.  Candidates are
    frozen ring versions past the retained count, plus — when
    [older_than] is given — any non-head version whose snaptime is
    strictly below it (an explicit cutoff overrides the count).  The live
    head is never touched.  Pinned candidates move to the zombie list
    (their readers keep a byte-identical image; the final {!release}
    reclaims them); unpinned candidates are freed unless the reclaim
    guard vetoes.  [dry_run] (default false) reports what would happen
    without changing anything.  Raises [Invalid_argument] if called
    between {!begin_commit} and {!end_commit}. *)
