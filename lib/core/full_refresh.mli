(** Full refresh: "the simplest method is to transmit the (restricted &
    projected) base table to the snapshot each time the snapshot is
    refreshed.  The snapshot is first cleared and then the received data is
    inserted."

    Minimal impact on base-table operations, but it retransmits every
    qualified entry whether or not anything changed — the baseline the
    differential algorithm is measured against. *)

open Snapdiff_txn

type report = {
  new_snaptime : Clock.ts;
  entries_scanned : int;
  data_messages : int;
}

val refresh :
  base:Base_table.t ->
  restrict:Snapdiff_expr.Eval.record_pred ->
  ?project:int array ->
  xmit:(Refresh_msg.t -> unit) ->
  unit ->
  report
(** [restrict] runs on each stored record (user columns first, then the
    two annotations; {!Annotations.user_pred} adapts a tuple predicate).
    [project] lists the user columns each [Upsert] carries (default: all
    of them, in order); a qualified row's [Upsert] carries those fields'
    bytes, copied, and nothing of a row is decoded. *)

(** {1 Resumable form}

    The same pass as a cursor, so a caller holding page locks can run it
    chunk by chunk and append a catch-up overlay before the commit marker;
    [refresh] is [finish (start ...)], so the two cannot drift apart. *)

type cursor

val start :
  base:Base_table.t ->
  restrict:Snapdiff_expr.Eval.record_pred ->
  ?project:int array ->
  xmit:(Refresh_msg.t -> unit) ->
  unit ->
  cursor
(** Tick the clock for the new [SnapTime], send [Clear], and fix the
    data-page count the scan covers. *)

val pages : cursor -> int

val scan_to : cursor -> last_page:int -> unit
(** Send an [Upsert] for every qualified entry on pages up to [last_page]
    (clamped to {!pages}) not yet scanned. *)

val timing : cursor -> Fixup.timing
(** Where the pass spent its time: [load_us], [filter_us], [emit_us]
    (nothing is fixed up). *)

val finish : cursor -> report
(** Scan any remaining pages, then send the [Snaptime] commit marker. *)
