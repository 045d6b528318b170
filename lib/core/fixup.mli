(** The base-table fix-up algorithm (paper Figure 7).

    Under deferred maintenance, base operations leave NULL annotations and
    delete entries without a trace.  One address-order scan restores the
    fields:

    - NULL [PrevAddr] — the entry was {e inserted}: set [PrevAddr] to the
      previous entry's address and stamp [TimeStamp];
    - NULL [TimeStamp] (non-NULL [PrevAddr]) — the entry was {e updated}:
      stamp [TimeStamp];
    - [PrevAddr <> ExpectPrev] — one or more entries {e deleted} before
      this one: repoint [PrevAddr] and stamp [TimeStamp] ("detecting
      deletions ... by detecting anomalies in the empty region information
      in the PrevAddr fields is central to the differential refresh
      algorithm");
    - [PrevAddr = ExpectPrev <> LastAddr] — entries were inserted just
      before this one: repoint [PrevAddr] only (no stamp).

    [ExpectPrev] tracks the last {e non-newly-inserted} entry, [LastAddr]
    the last entry of any kind.

    The standalone pass serves {!run} and the chunked refresh's catch-up
    re-fix; every refresh scan, full or differential, runs the combined
    single pass in {!Differential}. *)

open Snapdiff_txn

type stats = {
  scanned : int;  (** entries read (walked) on the pages loaded *)
  skipped : int;  (** entries proven clean by a page summary, not decoded *)
  writes : int;  (** entries whose annotation fields were rewritten *)
  bytes : int;
      (** record bytes those writes stored: 18 per in-place patch
          ({!Base_table.set_annotations}) *)
}

val run : Base_table.t -> fixup_time:Clock.ts -> stats
(** One full pass.  [fixup_time] is the time stamped into every restored
    [TimeStamp] ("only snapshot refresh events need to occur at distinct
    times, [so] we can use the current (base table) time").

    The pass is page-wise: a page whose {!Base_table.page_summary} is
    still present (hence exact, with no NULL annotations and an intact
    internal PrevAddr chain) is skipped without decoding when the scan
    state at its boundary matches — [ExpectPrev = LastAddr] (no pending
    insertion repoint) and the page's [sum_first_prev] equals
    [ExpectPrev] (no pending deletion anomaly).  Pages it does decode get
    a fresh summary recorded, so repeated fix-ups over a quiescent table
    cost O(pages), not O(entries). *)

(** {1 Resumable form}

    The same pass as a cursor, so a caller holding page locks can run it
    chunk by chunk; [run] is the cursor driven without suspension. *)

type cursor

val start : Base_table.t -> fixup_time:Clock.ts -> cursor
(** Fix the data-page count the pass covers and position it before
    page 1. *)

val scan_to : cursor -> last_page:int -> unit
(** Restore the annotations of every page up to [last_page] (clamped to
    the page count) not yet passed.  The caller must hold locks covering
    those pages. *)

val stats : cursor -> stats

(** {1 The per-entry step}

    The Figure 7 state machine, shared by this pass and the combined
    fix-up/refresh scan in {!Differential}.  It works on raw fields
    ({!Annotations.raw_prev}/{!Annotations.raw_ts}, NULL =
    {!Annotations.null}) and mutable state, so a step allocates
    nothing. *)

type chain = {
  fixup_time : Clock.ts;  (** stamped into every restored [TimeStamp] *)
  mutable expect_prev : Snapdiff_storage.Addr.t;
      (** last non-newly-inserted entry passed *)
  mutable last_addr : Snapdiff_storage.Addr.t;  (** last entry of any kind passed *)
  mutable prev : int;  (** the last stepped entry's corrected PrevAddr *)
  mutable ts : int;  (** the last stepped entry's corrected TimeStamp *)
}

val chain : fixup_time:Clock.ts -> chain
(** The state before the first entry: [ExpectPrev = LastAddr = 0]. *)

val step : chain -> addr:Snapdiff_storage.Addr.t -> prev:int -> ts:int -> bool
(** [step c ~addr ~prev ~ts] processes the entry at [addr] whose stored
    fields are [prev]/[ts]: it leaves the corrected fields in [c.prev] and
    [c.ts] (never NULL), advances [ExpectPrev] and [LastAddr], and returns
    whether either field changed — i.e. whether the entry needs a write. *)

(** {1 One page under one pin}

    The first phase of every page-wise scan — this pass and the combined
    fix-up/refresh scan in {!Differential} — is this one function.  It pins the page once, copies it into the scan's
    arena, walks every record's fields
    ({!Snapdiff_storage.Decode_arena.walk}: nothing is decoded) and, for
    a fix-up, runs {!step} on the two raw annotation fields read in
    place and patches each changed tail straight into the pinned frame
    from one reused {!Annotations.tail_bytes}-byte buffer.  The frame is
    marked dirty and the page summary removed at most once per page.  A
    record whose annotation fields are not both integers
    ({!Annotations.record_patchable}) is rewritten whole through
    {!Base_table.set_annotations} after the pin is released.  The later
    phases (restriction, projection) run unpinned over the arena copy. *)

type timing = {
  mutable load_us : float;  (** pin, pool miss, page copy *)
  mutable fixup_us : float;  (** record walk, Figure 7 step, patches *)
  mutable filter_us : float;  (** restrictions (charged by the refresh scans) *)
  mutable emit_us : float;  (** the Figure 3 pass and the copy of sent rows *)
}
(** Where a scan spent its time, summed over its pages; each phase is
    timed per page, never per entry. *)

type annotations =
  | Fix of chain  (** step the chain and patch (deferred-mode refresh) *)
  | Read  (** read the stored fields as they are (eager mode) *)
  | Skip  (** walk only (selectivity measurement) *)

type page_scan = private {
  arena : Snapdiff_storage.Decode_arena.t;  (** the page copy and its walked records *)
  mutable page : int;  (** the page last loaded *)
  mutable addrs : int array;  (** entry [k]'s address (ascending) *)
  mutable prevs : int array;
      (** entry [k]'s PrevAddr: corrected under [Fix], as stored under
          [Read], unset under [Skip] *)
  mutable tss : int array;  (** entry [k]'s TimeStamp, likewise *)
  tail : bytes;  (** the patch buffer *)
  mutable writes : int;  (** annotation writes so far, over every page loaded *)
  mutable bytes : int;  (** record bytes those writes stored *)
  timing : timing;
      (** the phases of every page loaded, plus the later phases its
          owner charges *)
}
(** A scan cursor's page scratch, reused page to page and never shared
    between cursors.  Read-only outside this module, except [timing]. *)

val page_scan : unit -> page_scan

val load_page : page_scan -> Base_table.t -> page:int -> annotations -> unit
(** Phase 1 of data page [page]: fills [addrs], [prevs] and [tss] for its
    {!entries} live entries.  Raises [Failure] where
    [Codec.tuple_of_bytes] would on a record, after the earlier records'
    patches, which stay written. *)

val entries : page_scan -> int
(** Live entries on the loaded page. *)

val fields : page_scan -> int -> Snapdiff_storage.Codec.Fields.t
(** The [k]-th entry's walked record, over the arena copy (one view,
    re-pointed per call). *)

val row : page_scan -> int -> int array option -> Snapdiff_storage.Row.t
(** The [k]-th entry's user columns [cols] ([None]: all of them), in
    order, as a row: their bytes copied out of the walked record, none
    decoded. *)

val timing : cursor -> timing
(** Where the standalone pass spent its time ([load_us], [fixup_us]). *)
