(** Snapshot catalog and refresh driver — the [CREATE SNAPSHOT] /
    [REFRESH SNAPSHOT] layer (what R* exposed at the SQL level).

    Responsibilities, following the paper's conclusions section:

    - at snapshot definition time: type-check and "compile" the restriction
      and projection against the base table's schema, create the snapshot
      table (with its BaseAddr index) at the snapshot site, and populate it
      with an initial full transfer over the site link;
    - refresh-method selection: "an analysis of the query determines
      whether the differential refresh algorithm or full refresh is to be
      used"; with [Auto] the choice is re-evaluated per refresh from the
      measured selectivity and the update activity observed since the last
      refresh ({!Snapdiff_analysis.Model});
    - at refresh time: take the table-level lock on the base table, run the
      selected method, stream the messages through the snapshot's link, and
      advance the snapshot's cursors;
    - multiple snapshots per base table, each with its own restriction,
      projection, link, and refresh schedule, all sharing one set of
      base-table annotations. *)

open Snapdiff_txn
module Expr = Snapdiff_expr.Expr
module Change_log = Snapdiff_changelog.Change_log
module Link = Snapdiff_net.Link

type method_spec =
  | Auto  (** pick full vs differential per refresh from the cost model *)
  | Full
  | Differential
  | Ideal  (** requires change capture; installed automatically *)
  | Log_based  (** requires the base table to have been created with a WAL *)

type method_used = Used_full | Used_differential | Used_ideal | Used_log_based

val method_name : method_used -> string

(** The sender half of a refresh's cost, in microseconds and bytes.

    [scan_us] is the locked scan's wall time (locks, page loads, fix-up,
    restriction, the copy of sent rows, catch-up, stream close) minus the
    time every member of its group spent inside its stream's transmit
    function; it is the same for all members of one group scan, and so
    is its split into six sub-phases, which sum to it:
    - [lock_us]: waiting for the table and page locks ({!Txn.lock});
    - [load_us]: pinning each scanned page (a pool miss included) and
      copying it into the scan's arena;
    - [fixup_us]: walking each record's fields, the Figure 7 step on the
      annotations read in place, and the tail patches (and the
      catch-up's fix-up pass when one runs);
    - [filter_us]: the restrictions, run page by page on the walked
      records;
    - [emit_us]: the Figure 3 pass and the copy of the rows sent (their
      projected fields' bytes), net of transmit (a page's messages are
      sent after its phases are timed);
    - [scan_other_us]: the rest — page decisions, summaries and prune
      caches, lock
      release, the catch-up's log scan and overlay, tails and commit
      markers — [scan_us] minus the other five, clamped at 0.
    Each phase is timed per page, never per entry.  A log-based or ideal
    refresh reads no pages: its scan is locks and other.

    [encode_us] is this member's time inside the transmit function
    outside the link: its stream {!Refresh_msg.writer} writing each
    message into the frame buffer, and each frame's header and checksum.
    The transmit function takes messages in bursts — a scanned page's
    for the table scan, all of a member's for the catch-up, at most a
    frame's for the log sources — and reads the clock once before and
    once after each burst, not per message; a burst that raises is
    charged too.
    [send_us] is its time inside the link ({!Refresh_msg.link_us}) — the
    link's accounting — net of the receiver's phases (including its
    frame check), which run synchronously inside it.
    [fixup_bytes] is the record bytes the scan's fix-up writes stored (18
    per in-place patch), charged like [fixup_writes].  [scan_us] and
    [send_us] are clamped at 0 against clock rounding. *)
type sender_phases = {
  scan_us : float;
  lock_us : float;
  load_us : float;
  fixup_us : float;
  filter_us : float;
  emit_us : float;
  scan_other_us : float;
  encode_us : float;
  send_us : float;
  fixup_bytes : int;
}

type refresh_report = {
  snapshot : string;
  method_used : method_used;
  new_snaptime : Clock.ts;
  entries_scanned : int;  (** base entries (or net-changed addresses) visited *)
  entries_skipped : int;
      (** entries the pruned differential scan proved irrelevant via page
          summaries and never decoded *)
  pages_decoded : int;
      (** base-table pages this snapshot's stream consumed (table scans,
          full or differential; 0 otherwise); under a group scan, members
          sharing a page each count it, while the physical decode
          happened once *)
  group_pages_decoded : int;
      (** physical page decodes of the table scan that served this
          refresh ({!Differential.group_report}): the same on every member
          of a group, 0 for methods that do not scan *)
  fixup_writes : int;
  data_messages : int;
  link_messages : int;  (** physical frames on the wire, incl. bracketing *)
  link_logical_messages : int;
      (** protocol messages those frames carried — the paper's metric;
          equals [link_messages] only when every frame carries one *)
  link_bytes : int;
  tail_suppressed : bool;
  log_records_scanned : int;  (** log-based method only *)
  attempts : int;  (** refresh attempts, including the successful one *)
  aborts : int;  (** streams the receiver discarded before success *)
  escalated : bool;  (** differential abandoned for full after repeated failures *)
  backoff_us : float;  (** simulated time spent backing off between attempts *)
  group_size : int;
      (** subscribers that shared the scan serving this refresh; 1 = solo *)
  chunks : int;
      (** page-range chunks the chunked concurrent scan was split into;
          0 = the monolithic whole-scan-lock path ran *)
  catchup_records : int;
      (** addresses changed since scan start that the catch-up phase
          replayed from the WAL tail (each one Upsert/Remove here) *)
  max_lock_hold_us : float;
      (** longest single lock-hold window — a chunk's page locks or the
          catch-up's table-S — the measure the chunked protocol bounds;
          0 on the monolithic path (which holds one table lock throughout,
          its hold being the whole refresh duration) *)
  receiver : Snapshot_table.commit_phases;
      (** the receiver half of the refresh's cost: how long the snapshot
          site spent checking frame headers and checksums ([decode_us]),
          freezing, walking each frame's messages in place — read, row
          check, replay ([replay_us]) — and publishing the
          committed stream ({!Snapshot_table.last_commit_phases}); all
          zero for a refresh that did not commit a framed stream *)
  sender : sender_phases;
      (** the sender half: scan, send and fix-up bytes; all zero for a
          report not produced by a refresh attempt *)
  wall_us : float;
      (** the committing attempt's wall time, from its start to its
          receivers' commits (earlier failed attempts and their backoff
          are not in it); 0 for a report not produced by a refresh
          attempt.  The same for every member of one group scan. *)
  residual_us : float;
      (** the part of [wall_us] no phase explains: [wall_us] minus
          [sender.scan_us] minus, over every member of the group that
          committed, its [encode_us], [send_us] and four receiver phases.
          The same for every member of one group; for a solo refresh it is
          the wall time minus that refresh's own phases.  It holds request
          sends, stream set-up and a failed sibling's time on its link,
          and is [>= 0] up to clock rounding. *)
  alloc_words : int;
      (** words the committing attempt allocated on the refreshing domain
          ([Gc.minor_words] over [wall_us]: sender and receivers together,
          since the link delivers in the sender's call); 0 for a report
          not produced by a refresh attempt.  The same for every member of
          one group scan. *)
}

val make_report :
  snapshot:string ->
  method_used ->
  new_snaptime:Clock.ts ->
  entries_scanned:int ->
  data_messages:int ->
  link:Link.t ->
  since:Link.stats ->
  refresh_report
(** The one constructor of a {!refresh_report}: the counts given, the
    [link_*] fields from what [link] carried since its stats read [since],
    and every other field as for one clean attempt with no ledger.  A
    manager refresh stamps its scan figures, retries and phases on top. *)

(** {1 Retry policy}

    A refresh whose stream is lost mid-flight (link outage, dropped or
    corrupted messages) leaves the receiver on its previous consistent
    image; the manager retries with a fresh epoch under exponential
    backoff, and after [escalate_after] consecutive failures abandons
    the differential stream for a full refresh (shorter streams survive
    lossy links better, and a full stream needs no prior state). *)

type retry_policy = {
  max_attempts : int;  (** total attempts before {!Refresh_failed} *)
  backoff_us : float;  (** initial backoff *)
  backoff_multiplier : float;
  max_backoff_us : float;
  jitter : float;  (** fraction of the delay randomized, in [0, 1] *)
  escalate_after : int;  (** consecutive failures before forcing full; 0 disables *)
}

val default_retry_policy : retry_policy

exception Refresh_failed of { snapshot : string; attempts : int; reason : string }
(** The retry budget was exhausted without a committed stream.  The
    snapshot still holds its last consistent image. *)

exception Unknown_table of string
exception Unknown_snapshot of string
exception Duplicate_name of string
exception Bad_definition of string

type t

val create :
  ?retry:retry_policy ->
  ?seed:int ->
  ?batch_size:int ->
  ?chunk_entries:int ->
  unit ->
  t
(** [seed] feeds the manager's private RNG (backoff jitter, selectivity
    sampling), keeping runs reproducible.  [batch_size] (default
    {!Refresh_msg.default_batch_size}) is the batched-transport flush
    threshold of every refresh stream's {!Refresh_msg.writer}: up to
    [batch_size] consecutive data messages of a refresh stream travel as
    one frame — one link header, one sequence number, one checksum —
    cutting physical message count up to [batch_size]-fold while the
    logical stream (and the receiver's atomic epoch) is unchanged.
    Control messages send the frame in progress and travel alone.
    [batch_size = 1] frames every message by itself.

    [chunk_entries] (default [max_int] = off) enables the chunked
    concurrent refresh protocol: scans of WAL-backed base tables run
    under a table {e intention} lock and process roughly
    [chunk_entries] entries per chunk under short page locks (coupled —
    the next chunk's pages are locked before the previous chunk's are
    released), letting updaters interleave between chunks; transaction
    consistency is restored by a final short table-S catch-up that
    replays the WAL tail written since the scan began.  With the default,
    refresh holds the whole-scan table lock exactly as before, and the
    transmitted stream is byte-identical.  Every refresh scan decodes pages
    through its cursor's one reused {!Snapdiff_storage.Decode_arena}. *)

val txn_manager : t -> Snapdiff_txn.Txn.manager
(** The manager's transaction/lock manager.  Cooperative concurrency
    drivers (tests, the bench) begin updater transactions here so their
    table-IX/page-IX/entry-X locks contend with the refresh scan's locks
    in the one shared lock table. *)

val set_retry_policy : t -> retry_policy -> unit

val set_chunk_entries : t -> int -> unit
(** Takes effect from the next refresh; values below 1 clamp to 1.
    [max_int] restores the monolithic whole-scan-lock behaviour. *)

val set_chunk_hook : t -> (unit -> unit) option -> unit
(** Interleave point for cooperative drivers (tests, the bench): called
    after each chunk's page locks are released (and once more after the
    last chunk, before the catch-up phase), while the scan's table
    intention lock is still held.  The hook may mutate the base table —
    that is the point — but must not start another refresh of it. *)

val register_base : t -> Base_table.t -> unit
(** Makes a base table eligible as a snapshot source.  Raises
    {!Duplicate_name} if a table of that name is already registered. *)

val unregister_base : t -> string -> unit
(** Raises {!Unknown_table}, or {!Bad_definition} if snapshots still depend
    on the table. *)

val snapshots_on : t -> string -> string list
(** Names of the snapshots defined over a base table. *)

val base : t -> string -> Base_table.t
(** Raises {!Unknown_table}. *)

val base_names : t -> string list

val create_snapshot :
  t ->
  name:string ->
  base:string ->
  ?restrict:Expr.t ->
  ?projection:string list ->
  ?method_:method_spec ->
  ?link:Link.t ->
  ?tail_suppression:bool ->
  ?prune:bool ->
  ?selectivity:float ->
  ?version_retain:int ->
  unit ->
  refresh_report
(** Defines and initially populates a snapshot; the returned report is for
    the initial (always full) population.  Defaults: [restrict] accepts
    everything, [projection] keeps all user columns, [method_] is [Auto],
    [link] is a fresh in-process link, [tail_suppression] false (the
    paper's algorithm verbatim), [prune] true (differential refreshes use
    the page-summary pruned scan; the transmitted stream is identical
    either way, so this only affects scan CPU).  [selectivity] overrides the planner's
    estimate (e.g. from table statistics); without it the restriction is
    measured by scanning the base table once.  Raises {!Bad_definition} on an ill-typed
    restriction, an unknown/hidden projection column, or [Log_based]
    without a WAL; {!Duplicate_name}; {!Unknown_table}.

    [version_retain] (default 1) configures the snapshot's MVCC epoch
    ring (see {!Snapshot_table.read_txn} and {!read_txn}): every committed
    refresh publishes an immutable version, the last [version_retain] of
    which stay pinned-readable while refreshes keep committing. *)

val attach_snapshot :
  t ->
  name:string ->
  base:string ->
  ?restrict:Expr.t ->
  ?projection:string list ->
  ?method_:method_spec ->
  ?link:Link.t ->
  ?tail_suppression:bool ->
  ?prune:bool ->
  ?selectivity:float ->
  ?snaptime:Clock.ts ->
  ?version_retain:int ->
  Snapdiff_storage.Buffer_pool.t ->
  unit
(** Adopt a persisted snapshot replica (a file-backed store from a
    previous process) into the catalog {e without} an initial population:
    pass the [snaptime] recorded when it was persisted and the next
    refresh resumes differentially from there.  [method_] may not be
    [Ideal] (capture installed now would have missed everything since the
    persisted snaptime).  Raises {!Snapshot_table.Corrupt_snapshot} if
    the store fails the adoption integrity scan — surfaced typed, like
    {!Refresh_failed}, with the catalog left unchanged — plus the same
    definition-time exceptions as {!create_snapshot}. *)

val refresh : ?group:bool -> t -> string -> refresh_report
(** [REFRESH SNAPSHOT]: runs the snapshot's method under the base-table
    lock.  With [group:true] (default false) the named snapshot is
    refreshed together with every sibling snapshot on its base table via
    {!refresh_all}, so table-scanning members share one scan; only the
    named snapshot's report is returned (its failure is re-raised).
    Raises {!Unknown_snapshot}. *)

val refresh_all : ?only:string list -> t -> (string * (refresh_report, exn) result) list
(** Refresh every snapshot ([only] restricts and orders the set),
    grouping by base table: all members routed to a method that scans
    the table, full or differential, share {e one} page-pruned
    base-table scan ({!Snapdiff_core.Differential.refresh_group}) under
    one table lock — a page is decoded at most once per group and the
    deferred-mode fix-up runs once per scan — while the ideal and
    log-based members refresh solo.  Every per-snapshot
    guarantee is preserved: each member's stream is framed, batched and
    checksummed on its own link under its own epoch, applied atomically,
    and committed independently; a member whose arm fails is muted for
    the rest of the scan (the others' streams are unaffected), then
    degrades to a solo refresh with retries, the group attempt counting
    as attempt 1 toward the retry budget and escalation.  Results come
    back in request order; failures are per-snapshot [Error]s, never an
    exception for the whole batch (except {!Unknown_snapshot} for a bad
    [only] name). *)

val drop_snapshot : t -> string -> unit

val snapshot_names : t -> string list

val snapshot_table : t -> string -> Snapshot_table.t
(** Read access to the replica (to query it like any table). *)

(** {1 Versioned reads}

    Snapshot-isolation reads over the snapshot's retained refresh epochs:
    a pinned read transaction observes one committed epoch's exact image
    and neither blocks nor is blocked by concurrent refresh commits. *)

val read_txn : ?epoch:int -> t -> string -> Snapshot_table.read_txn option
(** Pin a retained epoch of the named snapshot (default: latest).
    [None] if [epoch] is not retained.  Raises {!Unknown_snapshot}.
    The transaction's pin, named for the snapshot, keeps its epoch
    until {!Snapshot_table.release_txn}. *)

val read_txn_exn : ?epoch:int -> t -> string -> Snapshot_table.read_txn
(** {!read_txn}, but a miss raises
    {!Snapshot_table.Version_store.Epoch_not_retained} (with the
    requested epoch and the live range) instead of returning [None] —
    the typed surface the SQL [AS OF] path reports cleanly. *)

val with_read_txn :
  ?epoch:int -> t -> string -> (Snapshot_table.read_txn -> 'a) -> 'a option
(** Run [f] with a pinned transaction, releasing it afterwards (also on
    exceptions).  [None] if the epoch is not retained. *)

val snapshot_versions : t -> string -> Snapshot_table.Version_store.version_info list
(** The named snapshot's retained version ring, newest first. *)

val snapshot_base : t -> string -> string
(** Name of the base table a snapshot is defined over. *)

val snapshot_method : t -> string -> method_spec

val snapshot_restrict : t -> string -> Expr.t

val snapshot_link : t -> string -> Link.t

val snapshot_request_link : t -> string -> Link.t
(** The control path (snapshot site -> base site): carries the one-time
    {!Refresh_msg.Register} at definition and a {!Refresh_msg.Request}
    with the current SnapTime at every refresh, so the full protocol cost
    is accounted. *)

val selectivity_estimate : t -> string -> float
(** The planner's current selectivity estimate for a snapshot. *)

(** {1 Scheduler hooks}

    The fleet scheduler ({!Snapdiff_fleet.Fleet}) drives refresh through
    these: it reads observed churn and the committed-refresh history to
    feed the cost model, and re-routes a snapshot's method per refresh. *)

val report_history : ?limit:int -> t -> string -> refresh_report list
(** Committed refreshes of a snapshot, most recent first, including the
    initial population; bounded (the last 32).  [limit] truncates
    further.  Raises {!Unknown_snapshot}. *)

val set_method : t -> string -> method_spec -> unit
(** Re-route a snapshot's method from the next refresh.  Raises
    {!Bad_definition} for [Log_based] without a WAL, or for [Ideal] after
    creation (capture installed now would miss everything since the last
    refresh).  Any committed refresh advances the log cursor, so [Log_based]
    replays only the genuine tail; on a deferred-mode base the first
    differential refresh after a log-based or ideal one runs full. *)

val mutations_since_refresh : t -> string -> int
(** Base-table operations observed since the snapshot's last committed
    refresh — the raw churn count behind
    {!Snapdiff_analysis.Model.observed_update_fraction}, the
    distinct-update fraction the [Auto] method choice uses. *)

val estimate_refresh_messages : t -> string -> [ `Full of float ] * [ `Differential of float ]
(** The cost model's prediction for the next refresh, given observed
    update activity — exposed for the planner tests and the CLI. *)

val change_log : t -> string -> Change_log.t option
(** The change-capture log of a base table, if any snapshot installed one. *)

(** {1 Checkpointing}

    An asynchronous fuzzy checkpoint ({!Snapdiff_wal.Checkpoint}) of a
    physical WAL and every base table that writes to it, followed by one
    truncation of that log to the minimum begin LSN.  The WAL itself stops
    the truncation at its lowest live hold ({!Snapdiff_wal.Wal.hold}): an
    in-flight chunked refresh's catch-up start ([scan:<base>], held while
    its scan runs, so a checkpoint invoked from the chunk hook mid-refresh
    leaves the scan's tail in place) or a log-based snapshot's cursor
    ([cursor:<snap>]). *)

type checkpoint_report = {
  cp_base : string;
  cp_begin_lsn : Snapdiff_wal.Wal.lsn;
      (** redo floor the checkpoint established: the minimum begin LSN
          over the bases on the log *)
  cp_end_lsn : Snapdiff_wal.Wal.lsn;  (** the last End_checkpoint record *)
  cp_pages_snapshotted : int;  (** dirty pages in the begin-LSN snapshots *)
  cp_pages_flushed : int;  (** pages actually written back *)
  cp_bytes_written : int;  (** bytes written (sub-page ranges counted exactly) *)
  cp_truncated_to : Snapdiff_wal.Wal.lsn;  (** the log's new oldest retained LSN *)
  cp_log_bytes_reclaimed : int;
  cp_gated : (string * Snapdiff_wal.Wal.lsn) list;
      (** [(holder, lsn)] of the live holds (scan catch-ups, log cursors)
          that stopped the truncation below the begin LSN, ascending by
          LSN; [[]] = the truncation reached it *)
}

val checkpoint : t -> string -> checkpoint_report
(** [checkpoint t base_name] checkpoints the named base table's WAL: it
    runs the fuzzy checkpoint on the buffer pool of every registered base
    that shares that log (yielding to the chunk hook between page
    write-backs, so cooperative updaters never stall), then truncates the
    log once, to the minimum begin LSN — a shared log keeps the redo
    records of every base's unflushed pages.  Page and byte counts are
    summed over those bases.  Each base's checkpoint runs under a
    [checkpoint:<base>] hold at the log's oldest record, so a concurrent
    {!vacuum} cannot truncate under it.  Raises {!Unknown_table}, or
    {!Bad_definition} if the table has no WAL. *)

(** {1 Vacuum}

    Reclamation of expired snapshot versions and the WAL tail, in one
    pass.  A version stays while the ring or a pin holds it: vacuum parks
    a pinned version on the zombie list and frees any other.  The WAL
    half is {!checkpoint} applied to every physical log, so a live scan
    or a log cursor holds back the vacuum exactly as it holds back a
    checkpoint — no truncation passes a live hold. *)

type snapshot_vacuum = {
  sv_snapshot : string;
  sv_examined : int;  (** eviction candidates considered *)
  sv_reclaimed : int;  (** versions freed (or would be, on a dry run) *)
  sv_zombied : int;  (** pinned candidates parked on the zombie list *)
  sv_bytes : int;  (** encoded bytes the freed versions held *)
  sv_leases : (string * int) list;
      (** who holds the snapshot's epochs: each live pin's holder and
          epoch ({!Snapshot_table.holders}), ascending by epoch, then
          holder — a pinned reader, or [cascade:<child>] for a cascade
          child's held image *)
}

type wal_vacuum = {
  wv_bases : string list;  (** bases sharing this physical log, sorted *)
  wv_truncated_to : Snapdiff_wal.Wal.lsn;
  wv_log_bytes_reclaimed : int;
  wv_gated : (string * Snapdiff_wal.Wal.lsn) list;
      (** [(holder, lsn)] of the holds that stopped the truncation, as
          [cp_gated] *)
}

type vacuum_report = {
  vac_dry_run : bool;
  vac_snapshots : snapshot_vacuum list;  (** sorted by snapshot name *)
  vac_wals : wal_vacuum list;
}

val vacuum : ?older_than:Clock.ts -> ?dry_run:bool -> t -> vacuum_report
(** Reclaim snapshot versions the ring has let go
    ({!Snapshot_table.vacuum} per snapshot; [older_than] vacuums any
    non-head version with an older snaptime, overriding the retained
    count; a pinned one parks on the zombie list), then checkpoint each
    physical log as {!checkpoint} does.  [dry_run] (default false)
    reports what would be reclaimed without changing anything — the WAL
    half then reports the reclaimable byte span against the log's
    current end. *)
