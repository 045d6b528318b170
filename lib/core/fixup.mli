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

    The standalone pass exists for tests and for offline "re-annotation";
    refresh normally runs the combined single pass in {!Differential}. *)

open Snapdiff_txn

type stats = {
  scanned : int;  (** entries decoded *)
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
