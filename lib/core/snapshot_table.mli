(** Snapshot tables — the read-only replica at the snapshot site.

    "The snapshot table itself is stored more traditionally.  The entries
    in the snapshot table are extended to include a field (BaseAddr)
    containing the address of the corresponding entry in the base table."
    Here the rows live in a {!Version_store} page table clustered on
    BaseAddr — "clearly, a snapshot index on BaseAddr will accelerate
    snapshot refresh processing" — whose page directory drives every
    lookup and range deletion.  A row is held as the encoded bytes its
    message carried ({!Row.t}), never decoded on the receive path; every
    read below returns tuples, decoding the rows it hands out.  The
    persisted form ({!on_pool}, {!flush}) keeps BaseAddr as a hidden
    [__baseaddr] column.

    {!apply} implements the snapshot side of each refresh method
    (Figure 4 for the differential messages):

    - [Entry {addr; prev_qual; row}]: delete every snapshot entry with
      [prev_qual < BaseAddr < addr], then upsert [addr];
    - [Tail {last_qual}]: delete everything with [BaseAddr > last_qual];
    - [Region {lo; hi}]: delete [lo <= BaseAddr <= hi];
    - [Upsert]/[Remove]: exact-address upsert/delete;
    - [Clear]: empty the snapshot (full refresh);
    - [Snaptime ts]: record the new refresh time. *)

open Snapdiff_storage
open Snapdiff_txn
module Version_store = Snapdiff_mvcc.Version_store

type t

exception Corrupt_snapshot of string
(** A persisted snapshot store failed integrity checks on adoption
    ({!on_pool}); the message names the snapshot and the damage. *)

val create : ?version_retain:int -> name:string -> schema:Schema.t -> unit -> t
(** [schema] is the (already projected) user schema of the snapshot's
    contents.

    [version_retain] (default 1) configures the MVCC epoch ring: each
    committed framed stream publishes an immutable version, the last
    [version_retain] of which stay readable through {!read_txn}.  At the
    default a commit still copies the pages it touches, since a reader
    may pin the pre-commit image while it replays. *)

val on_pool :
  ?snaptime:Clock.ts ->
  ?version_retain:int ->
  name:string ->
  schema:Schema.t ->
  Snapdiff_storage.Buffer_pool.t ->
  t
(** Reattach to a persisted snapshot (e.g. a file-backed store at the
    snapshot site after a restart): every heap record in the pool — the
    user columns plus [__baseaddr] — is adopted into the page table.
    Pass the [snaptime] recorded at the last refresh — together they
    allow differential refresh to resume exactly where it left off.
    Raises {!Corrupt_snapshot} on a [__baseaddr] that is not an int or
    repeats an address already adopted. *)

val flush : t -> unit
(** Write the current image to the pool's store: insert its records,
    flush, then delete the records of the image written before, and
    flush again.  A write cut short so leaves every row of one image or
    the other in the store — most often both, which {!on_pool} reports as
    duplicate BaseAddrs.  A no-op for a table made by {!create}, which has
    no pool. *)

val name : t -> string

val schema : t -> Schema.t

val snaptime : t -> Clock.ts
(** {!Clock.never} before the first refresh. *)

val count : t -> int

val apply : t -> Refresh_msg.t -> unit
(** Immediate application of a raw message, outside any epoch; an open
    epoch is aborted first.  A row that does not match the schema raises
    [Invalid_argument], and nothing of the message is stored. *)

val apply_bytes : t -> bytes -> int -> unit
(** The receiver installed on the network link, over the first [len]
    bytes of the buffer it lends.  A raw message is decoded and applied
    like {!apply}; a frame joins its epoch (below).  Bytes that decode
    to no frame, or to a raw message with a malformed row, never raise:
    inside an epoch they abort it, and with none open they abort the
    epoch whose frames come next. *)

(** {1 Atomic stream application}

    A framed refresh stream is applied as it arrives, inside the page
    table's open commit: its first well-formed frame seals the committed
    image ({!Version_store.begin_commit}), each frame's sequence number
    is checked, then its messages are read one at a time from the
    frame's bytes, each row checked against the schema (arity, column
    types, NOT NULL) on its tag bytes and stored into the open root
    without a decode, and the marker — a
    frame of one {!Refresh_msg.Snaptime} — publishes the epoch.  A
    message that fails part-way through a frame aborts the epoch, whose
    sealed image discards what the frame replayed.  A sequence gap,
    a bad checksum, undecodable bytes, a malformed row, a frame of
    another epoch, raw bytes inside the stream or {!abort_stream} aborts
    the epoch at once: the
    table returns to the sealed image, the secondary indexes are rebuilt
    from it, and the epoch's remaining frames are dropped.  Until the
    marker every public read — {!get}, {!contents}, {!tuples}, {!count},
    {!fold}, {!high_water}, {!lookup}, {!lookup_range},
    {!flush} — sees the last committed image. *)

val abort_stream : t -> reason:string -> unit
(** Abort the open epoch, if any (the sender saw its stream fail). *)

val open_epoch : t -> int option
(** The epoch whose frames are being applied, if one is open. *)

val epochs_committed : t -> int

val epochs_aborted : t -> int

val last_abort : t -> string option
(** The reason of the last abort, whichever epoch it hit. *)

val abort_reason : t -> epoch:int -> string
(** Why [epoch] did not commit: the last abort's reason if that abort hit
    [epoch], otherwise ["epoch N did not reach its Snaptime"].  An abort
    with no epoch open (a first frame garbled past reading) is charged to
    the epoch whose next frame arrives. *)

val last_committed_epoch : t -> int
(** Epoch of the most recently committed framed stream; [-1] before any. *)

(** Where the receiver's time went in its last framed commit, in
    microseconds.  The four phases are disjoint: [decode_us] sums
    {!apply_bytes}' check of the epoch's frame headers and checksums;
    [freeze_us] is {!Version_store.begin_commit} sealing the committed
    image at the first frame; [replay_us] sums the walk of each frame's
    messages in place — reading each, checking its row's tag bytes, and
    replaying it into the page table, the row stored as its bytes
    (copying each page the first time the epoch touches it);
    [publish_us] is
    {!Version_store.end_commit} publishing the epoch.  Beside the times,
    [replay_msgs] counts the messages replayed and [replay_searches] the
    page-table lookups among them that fell back to a binary search
    ({!Version_store.searches}). *)
type commit_phases = {
  decode_us : float;
  freeze_us : float;
  replay_us : float;
  publish_us : float;
  replay_msgs : int;
  replay_searches : int;
}

val no_phases : commit_phases
(** All zero: no framed commit yet. *)

val last_commit_phases : t -> commit_phases
(** {!no_phases} before the first framed commit. *)

val get : t -> Addr.t -> Tuple.t option
(** Lookup by base address. *)

val contents : t -> (Addr.t * Tuple.t) list
(** (BaseAddr, tuple) in BaseAddr order.  Materializes an O(n) list;
    prefer {!fold} on hot paths. *)

val tuples : t -> Tuple.t list

val fold : t -> init:'a -> f:('a -> Addr.t -> Tuple.t -> 'a) -> 'a
(** BaseAddr-ascending traversal with no result list.  The callback must
    not mutate the table. *)

val high_water : t -> Addr.t
(** Largest BaseAddr held, {!Addr.zero} if empty (input to the
    tail-suppression optimization). *)

(** {1 Secondary indexes}

    "Indices can be defined on a snapshot to accelerate access to its
    contents."  Secondary indexes are maintained through every {!apply}
    and can be created at any time (with backfill). *)

val create_index : t -> column:string -> unit
(** Idempotent.  Raises [Invalid_argument] on an unknown column. *)

val indexed_columns : t -> string list

val has_index : t -> column:string -> bool

val lookup : t -> column:string -> Value.t -> Addr.t list
(** BaseAddrs of entries whose column equals the value, ascending.
    Raises [Invalid_argument] if the column has no index.  While an epoch
    is open the index follows its replay, so the lookup scans the
    committed image instead, as {!txn_lookup} does. *)

val lookup_range :
  t -> column:string -> ?lo:Value.t -> ?hi:Value.t -> unit -> Addr.t list

(** {1 Versioned reads}

    Each committed framed stream publishes an immutable version of the
    table into a ring of the last [version_retain] epochs (see {!create}).
    A read transaction pins one version: it observes that epoch's exact
    contents no matter how many refreshes commit meanwhile, never blocks
    a commit, and never waits for one.  A version is reclaimed only once
    it leaves the ring {e and} its last pin is released. *)

type read_txn

val read_txn : ?epoch:int -> ?holder:string -> t -> read_txn option
(** Pin the given retained epoch (default: the latest version).  A pin
    reads the image of its pin time: raw {!apply} calls after it do not
    reach it, and a pin taken during a commit reads the pre-commit image.
    [None] if that epoch is not retained.  Release with {!release_txn}.
    The pin alone keeps the epoch: ring eviction and {!vacuum} park a
    pinned version on the zombie list until its last release.  [holder]
    (default: the snapshot's name) names the reader on the pin, as
    {!holders} lists it. *)

val read_txn_exn : ?epoch:int -> ?holder:string -> t -> read_txn
(** {!read_txn}, but a miss raises {!Version_store.Epoch_not_retained}
    with the requested epoch and the retained range — the surface the
    SQL [AS OF] path reports as a clean error. *)

val release_txn : read_txn -> unit
(** Idempotent.  Releases the version pin. *)

val txn_pinned : read_txn -> bool

val txn_epoch : read_txn -> int
(** [-1] on the pre-first-commit head. *)

val txn_snaptime : read_txn -> Clock.ts

val txn_image : read_txn -> Version_store.image
(** The pinned image, for {!Version_store}'s readers.  Raises
    [Invalid_argument] once released. *)

val txn_get : read_txn -> Addr.t -> Tuple.t option

val txn_count : read_txn -> int

val txn_iter : read_txn -> (Addr.t -> Tuple.t -> unit) -> unit
(** BaseAddr-ascending at the pinned version.  The callback must not
    mutate the table. *)

val txn_fold : read_txn -> init:'a -> f:('a -> Addr.t -> Tuple.t -> 'a) -> 'a

val txn_contents : read_txn -> (Addr.t * Tuple.t) list

val txn_lookup : read_txn -> column:string -> Value.t -> Addr.t list
(** Addresses whose column equals the value at the pinned version,
    ascending.  Secondary indexes track only the open root, so this is
    an index-free scan of the version.  Raises [Invalid_argument] on an
    unknown column (no index required). *)

val version_retain : t -> int

val versions : t -> Version_store.version_info list
(** The retained ring, newest first. *)

(** {1 Lifecycle}

    A retained version lives while the ring of [version_retain] epochs
    or a pin ({!read_txn}) holds it, and no longer: nothing else holds
    versions alive. *)

val holders : t -> (string * int) list
(** [(holder, epoch)] of every open {!read_txn}, ascending by epoch,
    then holder (see {!Version_store.holders}). *)

val zombie_count : t -> int
(** Versions the ring has let go that a pin still holds. *)

val vacuum :
  ?older_than:Clock.ts -> ?dry_run:bool -> t -> Version_store.vacuum_stats
(** Evict retained versions the ring has let go or [older_than] expires
    (see {!Version_store.vacuum}); the per-snapshot half of
    [Manager.vacuum]. *)

val validate : t -> (unit, string) result
(** {!Version_store.validate} on the page table, then each secondary
    index against a scan of the open root it follows, in O(rows). *)
