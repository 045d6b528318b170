(** The snapshot's page table and its epoch ring: every row of one
    snapshot table, stored once, plus the last K committed refresh epochs
    as immutable roots served to readers that never block on — and are
    never blocked by — a refresh commit.

    {2 The page table}

    A root is an ordered, persistent directory from pid to page.  A page
    holds the rows whose BaseAddr falls in one span of [page_span]
    addresses (64 by default), ascending; an empty page leaves the
    directory.  A row is a {!Row.t}, its encoded bytes: the store keeps
    the one copy it is given and never decodes it.  The paper asks only
    that the snapshot is indexed on BaseAddr: here it is clustered on it,
    and the directory is that index.

    The {e open root} is the head, edited by the one writer through
    {!put}, {!delete} and {!clear}, and read by it through {!head} and
    {!succ_head}.  The writer edits a page in place only if no published
    or pinned root can reach it; otherwise it copies the page first (the
    page-granular copy-on-update of {e A Comparative Study of Consistent
    Snapshot Algorithms for Main-Memory Database Systems}).  Each page, and the
    directory, carries the generation it was made in, and a {e seal}
    starts a new generation: at each commit start and at each pin of the
    head.  So a commit copies the directory once and the pages it
    touches once each.

    {2 The writer's cursor}

    {!put}, {!delete} and {!succ_head} start from a cursor: the
    directory slot and the page slot where the writer's last one of them
    landed.  A target at or above the cursor's key is found by a forward
    search from it, in steps that double, so an address-ascending run of
    edits — the Figure 4 merge — costs a step or two each instead of a
    binary search of the directory and one of the page.  The cursor is a
    hint that checks itself against the keys at each use: no edit,
    {!clear} or {!abort_commit} has to keep it current.  When the keys
    show it does not apply (a backward jump, a slot gone) the lookup
    falls back to the binary search and counts it in {!searches}; so does
    a page lookup in a page other than the cursor's, so an ascending
    stream makes at most one per page it enters.

    {2 Epochs}

    A framed commit ({!begin_commit} .. {!end_commit}) replays its stream
    into the open root and publishes the result as the new head version
    of a ring of the [retain] most recent epochs.  A {!txn} pins one
    version and reads its root for as long as it likes.  The ring and the
    pins are all that keep a version: it leaves memory as soon as it has
    fallen off the ring {e and} no pin holds it (evicted-but-pinned
    versions park on a zombie list until released).  Each pin names its
    holder, so {!holders} can say who keeps which epoch.  A pin of the
    head reads the image of its pin time: later raw writes (edits outside
    a commit) go to pages it cannot reach.  A pin taken during a commit
    lands on the pre-commit image.

    {2 Concurrency}

    A sealed root is immutable, so a reader needs no lock to read it.  One
    mutex guards the ring, the pins and the seal; a commit holds it
    only at its start and its end, and its edits run without it.  Edits
    outside a commit hold it, since a pin of the head may seal the open
    root at any time. *)

open Snapdiff_storage
open Snapdiff_txn

exception Epoch_not_retained of { requested : int; live_lo : int; live_hi : int }
(** A named epoch is not in the ring — never committed, or already
    reclaimed.  Carries the requested epoch and the currently retained
    range (oldest..newest; the head is epoch [-1] before the first
    commit).  Raised by {!pin_exn}; registered with a printer. *)

type page = (Addr.t * Row.t) array
(** One page's rows, ascending BaseAddr (the {!page_table} view). *)

type t

type image
(** One root of the page table. *)

type txn
(** A read transaction pinned to one version. *)

val create : ?retain:int -> ?page_span:int -> unit -> t
(** An empty table.  Defaults: [retain = 1], [page_span = 64] addresses
    per page.  [retain] counts the head, so [retain = k] keeps the last
    [k] committed epochs readable; values below 1 clamp to 1. *)

val retain : t -> int

(** {1 The writer's open root} *)

val head : t -> image
(** The open root.  Only the writer may read it, and only until its next
    edit. *)

val committed : t -> image
(** The last committed image: between {!begin_commit} and its end, the
    pre-commit root it sealed; otherwise the open root, raw edits
    included.  Like {!head}, for the writer's own reads. *)

val put : t -> Addr.t -> Row.t -> Row.t option
(** Store the row at the address and return the row it replaced. *)

val delete : t -> Addr.t -> Row.t option
(** Remove the row at the address and return it. *)

val clear : t -> unit
(** Empty the open root, in O(1). *)

val succ_head : t -> Addr.t -> Addr.t
(** The first address the open root holds at or above the bound, or
    [max_int] if there is none: the receiver's gap probe, through the
    writer's cursor, which it moves to the address found.  It allocates
    nothing.  A row held at [max_int] reads the same as none. *)

val searches : t -> int
(** How many of the writer's lookups so far fell back to a binary search
    (of the directory or of one page) because the cursor did not apply.
    A plain counter: read it from the writer's side. *)

val validate : t -> (unit, string) result
(** The open root's layout, in O(rows): addresses strictly ascending
    within and across pages, each inside its pid's span, between 1 and
    [page_span] rows per page, and the row count. *)

(** {1 Commit protocol} *)

val begin_commit : t -> unit
(** Seal the open root as the head's image.  Must be paired with
    {!end_commit} or {!abort_commit}. *)

val end_commit : t -> epoch:int -> snaptime:Clock.ts -> unit
(** Publish the open root as the new head version and evict beyond
    [retain]: the same walk as {!vacuum} without a cutoff, so an
    evicted-but-pinned version becomes a zombie and any other is
    freed. *)

val abort_commit : t -> unit
(** Restore the open root to the head's image sealed by {!begin_commit}:
    the replay's edits are dropped and nothing is published. *)

(** {1 Reading an image} *)

val find : image -> Addr.t -> Row.t option

val last : image -> Addr.t option
(** The largest address held. *)

val count : image -> int

val iter : image -> (Addr.t -> Row.t -> unit) -> unit
(** BaseAddr-ascending. *)

val fold : image -> init:'a -> f:('a -> Addr.t -> Row.t -> 'a) -> 'a

val empty : image
(** The root of no rows. *)

val diff : image -> image -> (Addr.t -> Row.t option -> Row.t option -> unit) -> unit
(** [diff a b f] walks the two roots' page directories in pid order and
    skips each page they share physically (a page no commit between them
    copied).  On every other page it merges the two sides' rows by
    address and calls [f addr in_a in_b] for each address either holds,
    ascending, with [None] on the side that lacks it.  [diff empty b]
    visits every row of [b]. *)

val page_table : image -> (int * page * int) list
(** The non-empty pages, ascending pid, each with its encoded size
    ([8 + Row.length row] per row, summed on demand).  Exposed for
    tests. *)

(** {1 Read transactions} *)

val pin : ?epoch:int -> ?holder:string -> t -> txn option
(** Pin the named retained epoch, or the head when [epoch] is omitted.
    [None] if that epoch is not in the ring (never committed, or already
    evicted).  Before the first commit the head carries epoch [-1].
    [holder] (default ["?"]) names who holds the pin, for {!holders}. *)

val pin_exn : ?epoch:int -> ?holder:string -> t -> txn
(** {!pin}, but a miss raises {!Epoch_not_retained} with the requested
    epoch and the live range instead of returning [None] — the typed
    surface the SQL [AS OF] path reports cleanly. *)

val release : txn -> unit
(** Idempotent: removes this pin's one holder entry.  Dropping the last
    pin of a zombie reclaims it. *)

val txn_epoch : txn -> int
val txn_snaptime : txn -> Clock.ts

val txn_pinned : txn -> bool
(** False after {!release}. *)

val txn_image : txn -> image
(** The pinned image.  Raises [Invalid_argument] on a released
    transaction. *)

(** {1 Introspection} *)

type version_info = {
  vi_epoch : int;
  vi_snaptime : Clock.ts;
  vi_pins : int;  (** live pins, one per {!holders} entry *)
  vi_frozen : bool;  (** false only for the head *)
}

val versions : t -> version_info list
(** The ring, newest first. *)

val zombie_count : t -> int
(** Evicted versions kept alive only by open pins. *)

val holders : t -> (string * int) list
(** [(holder, epoch)] for every live pin, on the ring and on the zombie
    list, ascending by epoch, then holder.  A holder that pins one epoch
    twice is listed twice. *)

(** {1 Vacuum}

    The eviction walk on demand, the per-store half of
    [Manager.vacuum]. *)

type vacuum_stats = {
  vac_examined : int;  (** eviction candidates considered *)
  vac_reclaimed : int;  (** versions freed (or would be, on a dry run) *)
  vac_zombied : int;  (** pinned candidates parked on the zombie list *)
  vac_bytes : int;  (** encoded bytes the freed versions held, as {!page_table} sums them *)
}

val vacuum : ?older_than:Clock.ts -> ?dry_run:bool -> t -> vacuum_stats
(** Evict retained versions.  Candidates are ring versions past the
    retained count, plus — when [older_than] is given — any non-head
    version whose snaptime is strictly below it (an explicit cutoff
    overrides the count).  The head is never touched.  Pinned candidates
    move to the zombie list (their readers keep a byte-identical image;
    the final {!release} reclaims them); unpinned candidates are freed.
    [dry_run] (default false) reports what would happen without changing
    anything.  It may run during a commit: the head it never touches is
    then the pre-commit image. *)
