(** The differential snapshot refresh scan — the paper's contribution.

    For an {e eager}-mode base table this is exactly Figure 3
    ([BaseRefresh]): scan in address order; transmit a qualified entry if
    its timestamp is newer than [SnapTime] {e or} a modified unqualified
    entry was passed since the last qualified one (the [Deletion] flag);
    each transmission carries the address of the preceding qualified entry,
    which lets the snapshot delete everything between; finish with the
    unconditional tail message and the new [SnapTime].

    For a {e deferred}-mode base table the same scan is combined with the
    Figure 7 fix-up: "for each base table entry, we first update the extra
    fields, if needed.  Then, if necessary, the entry is transmitted."

    [tail_suppression] implements one of the improvements the paper leaves
    as an exercise ("the reader is invited to discover improvements which
    reduce the message traffic"): if the snapshot reports the largest
    [BaseAddr] it holds and that is not above the last qualified entry, the
    tail message cannot delete anything and is skipped.

    A {e full} refresh is the same pass with every qualified entry sent:
    "the simplest method is to transmit the (restricted & projected) base
    table to the snapshot each time the snapshot is refreshed.  The
    snapshot is first cleared and then the received data is inserted."
    It is one kind of {!subscriber}, so a full snapshot shares the group
    scan with its differential siblings, and on a deferred-mode base the
    scan's Figure 7 fix-up primes the annotations a later differential
    refresh reads. *)

open Snapdiff_storage
open Snapdiff_txn

(** Per-snapshot page-qualification cache, the companion of the base
    table's page summaries: for each page last seen clean it remembers the
    first and last {e qualifying} addresses on the page (or that there is
    none), the first qualifying entry's projected row, and the summary
    token they were recorded against, in arrays indexed by page number.
    The row is what a pending [Deletion] sends for the page without
    decoding it: a decode of an unchanged page would send exactly that
    entry.  A token mismatch — the page changed, or its summary was
    rebuilt — silently invalidates the entry and the page is decoded
    again.  The cache is bound to one snapshot's restriction {e and}
    projection, and holds one row per page that has a qualifying entry:
    never share a cache between snapshots with different [restrict]
    predicates or [project] columns. *)
module Prune_cache : sig
  type t

  val create : unit -> t
end

type report = {
  new_snaptime : Clock.ts;
  entries_scanned : int;  (** entries on the pages this scan read for this subscriber *)
  entries_skipped : int;  (** entries proven irrelevant by page summaries *)
  pages_decoded : int;
  pages_skipped : int;
  fixup_writes : int;  (** 0 in eager mode *)
  fixup_bytes : int;
      (** record bytes those writes stored: 18 per in-place tail patch
          ({!Base_table.set_annotations}) *)
  data_messages : int;
  tail_suppressed : bool;
}

type subscriber = {
  sub_full : bool;
      (** a full refresh: [Clear] at {!start}, then one [Upsert] per
          qualified entry in address order, no [Tail]; its stream ignores
          [sub_snaptime] and [sub_tail_suppression] *)
  sub_snaptime : Clock.ts;  (** the snapshot's current [SnapTime] *)
  sub_restrict : Snapdiff_expr.Eval.record_pred;
      (** compiled [SnapRestrict] ({!Snapdiff_expr.Eval.compile_record}),
          run on the {e stored} record: the user columns followed by the
          two annotation columns, so a predicate compiled against the
          user schema reads its columns unchanged.  A [Tuple.t -> bool]
          closure goes through {!Annotations.user_pred}. *)
  sub_project : int array option;
      (** the user columns an [Entry] carries, in order ([None]: all of
          them); a sent entry's row is these fields' bytes, copied *)
  sub_tail_suppression : Addr.t option;
      (** the snapshot's high-water [BaseAddr]; [None] disables *)
  sub_prune : Prune_cache.t option;
      (** this snapshot's own qualification cache — never shared *)
  sub_xmit : Refresh_msg.t array -> int -> unit;
      (** this snapshot's own link: [sub_xmit msgs n] sends
          [msgs.(0)] .. [msgs.(n-1)] in order, one burst; the array is
          borrowed for the call.  A page's messages are one burst, sent
          after its phases; [Clear], [Tail] and [Snaptime] are bursts of
          one. *)
}
(** One consumer of a group scan: everything a solo {!refresh} or
    {!refresh_full} takes, minus the base table, which the group shares.
    A full subscriber decodes every page its summary does not prove
    empty; it keeps [LastQual] as it goes, so a decoded page still fills
    its qualification cache. *)

val each : (Refresh_msg.t -> unit) -> Refresh_msg.t array -> int -> unit
(** [each xmit]: a {!subscriber}'s [sub_xmit] that hands the burst's
    messages to [xmit] one at a time, as {!refresh} and {!refresh_full}
    do with theirs. *)

type group_report = {
  group_pages : int;  (** data pages in the base table *)
  group_pages_decoded : int;  (** physical decodes this scan performed *)
  group_decodes_saved : int;
      (** sum over subscribers of pages each consumed minus
          [group_pages_decoded] — the amortization win *)
  group_fixup_writes : int;
  sub_reports : report array;  (** one per subscriber, in order *)
}

type cursor
(** A suspended group scan: the paper's address-ordered pass reified as a
    resumable state machine.  Everything the monolithic loop kept in local
    state — per-subscriber [LastQual]/[Deletion]/tail-suppression/prune
    bookkeeping and the shared deferred-mode PrevAddr-chain fix-up state —
    lives in the cursor, so the scan can stop at any page boundary (the
    chunked refresh protocol releases its page locks there and lets
    updaters interleave) and later resume exactly where it left off.
    Each cursor owns its scratch — one {!Fixup.page_scan} (page copy,
    field offsets, corrected annotations), the per-subscriber restriction
    bitmaps and page decisions — reused from page to page; the
    subscribers' compiled definitions hold none of it.

    {b A page in two phases.}  Phase 1 is {!Fixup.load_page}: under the
    page's one pin, copy it, walk every record's fields, and (deferred
    mode) step the Figure 7 chain on the raw annotation fields read in
    place, patching changed tails in the pinned frame.  Phase 2 runs
    unpinned over the copy: each decoding subscriber's restriction over
    the page into a bitmap, then the address-order Figure 3 pass, which
    copies a sent entry's projected fields' bytes into its row
    ({!Fixup.row}), and those of the page's first qualifying entry for a
    qualification cache, and decodes nothing.  The
    page's messages go out after its phases, so {!timing}'s filter and
    emit phases hold no transmit time. *)

val start : base:Base_table.t -> subscriber array -> cursor
(** Tick the clock once per subscriber (drawing each stream's new
    [SnapTime]; the first tick is the shared [FixupTime]), send each full
    subscriber's [Clear], snapshot the data-page count, and position the
    cursor before page 1.  Nothing is scanned yet. *)

val pages : cursor -> int
(** Data pages the scan will cover (fixed at {!start}; pages added by
    concurrent inserts are not scanned — the catch-up phase owns them). *)

val fixup_time : cursor -> Clock.ts
(** The shared [FixupTime] stamped into every annotation the scan
    restores (deferred mode). *)

val timing : cursor -> Fixup.timing
(** Where the scan spent its time so far: [load_us], [fixup_us],
    [filter_us], [emit_us], each timed per page. *)

val scan_to : cursor -> last_page:int -> unit
(** Advance the scan through page [last_page] (clamped to {!pages}),
    transmitting [Entry] (full: [Upsert]) messages exactly as the
    monolithic pass would.
    The caller must hold locks covering the pages being scanned. *)

val emit_tails : cursor -> unit
(** Close the address-ordered part of every differential subscriber's
    stream with its unconditional [Tail] message (suppressed per
    subscriber under the tail-suppression rule; a full subscriber sends
    none).  Idempotent.  After this, the chunked
    refresh protocol may append per-subscriber catch-up messages
    ([Upsert]/[Remove] replayed from the WAL tail) before {!finish}. *)

val finish : cursor -> group_report
(** Complete the refresh: scan any remaining pages, {!emit_tails} if not
    yet done, send each subscriber's [Snaptime] commit marker, and build
    the report.  [refresh_group base subs = finish (start ~base subs)] —
    the one-shot form is literally the cursor driven without suspension,
    so the two can never drift apart. *)

val refresh_group : base:Base_table.t -> subscriber array -> group_report
(** One page-pruned, address-ordered pass over [base], demultiplexed into
    per-subscriber streams.  Each subscriber keeps its own [SnapTime],
    restriction, projection, [Deletion] flag, qualification cache, and
    tail-suppression cursor; a page is decoded at most once per scan —
    decoded iff {e any} subscriber's summary/prune conditions require it,
    then fed to exactly the subscribers that need it — and in deferred
    mode the Figure-7 fix-up writes happen once per scan.

    The clock ticks once per subscriber, in array order, and the first
    tick is the shared [FixupTime]; consequently subscriber [i]'s stream
    (including its trailing [Snaptime]) is byte-identical to the [i]-th
    of a sequence of solo {!refresh} calls over the same table in the
    same order.  Fix-up writes are charged to subscriber 0's report, as
    the first solo refresher's pass would have performed all of them.
    The caller holds the table lock; [sub_xmit] exceptions propagate, so
    callers wanting failure isolation must absorb link errors inside the
    subscriber's own [sub_xmit]. *)

val refresh :
  ?tail_suppression:Addr.t option ->
  ?prune:Prune_cache.t ->
  base:Base_table.t ->
  snaptime:Clock.ts ->
  restrict:Snapdiff_expr.Eval.record_pred ->
  ?project:int array ->
  xmit:(Refresh_msg.t -> unit) ->
  unit ->
  report
(** [restrict] and [project] are the compiled [SnapRestrict] and
    projection, under the {!subscriber} contract: [restrict] sees the
    stored record (user columns first), [project] lists the user columns
    a sent entry carries (default: all).  [tail_suppression] is the
    snapshot's current high-water [BaseAddr] ([None] disables the
    optimization, reproducing the paper's algorithm verbatim).  The caller
    holds the table lock.

    With [prune], the scan runs page-wise and skips decoding any page
    whose {!Base_table.page_summary} plus cache entry prove the decode
    would transmit nothing and write nothing: [sum_max_ts <= snaptime]
    (nothing changed), in deferred mode no PrevAddr-chain anomaly at the
    page boundary ([ExpectPrev = LastAddr] and [sum_first_prev =
    ExpectPrev]), and a token-valid cache entry supplying the page's last
    qualifying address so [LastQual] — hence the receiver's
    delete-between semantics — advances exactly as an unpruned scan
    would.  While the [Deletion] flag is pending, a skipped page whose
    cache entry says it holds qualifying entries sends the one [Entry] a
    decode would — its first qualifying address and cached row, with
    [prev_qual = LastQual] — and clears the flag.  Every page the scan does
    decode gets its summary recorded and its cache entry refreshed, so
    the first pruned refresh pays one full scan and subsequent ones cost
    O(changed pages).  Skipping never changes the transmitted stream or
    the resulting annotations: pruned and unpruned refresh are
    message-for-message identical. *)

val refresh_full :
  ?prune:Prune_cache.t ->
  base:Base_table.t ->
  restrict:Snapdiff_expr.Eval.record_pred ->
  ?project:int array ->
  xmit:(Refresh_msg.t -> unit) ->
  unit ->
  report
(** A full refresh as a group of one full {!subscriber}: [Clear], an
    [Upsert] per qualified entry, then the [Snaptime] marker.  [restrict]
    and [project] are as for {!refresh}.  The clock ticks once; on a
    deferred-mode base that tick is also the [FixupTime] of the fix-up the
    pass runs as it loads each page.  The caller holds the table lock. *)
