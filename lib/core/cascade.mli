(** Cascaded snapshots: a snapshot derived from another snapshot.

    The paper: "snapshots can serve as base tables for other snapshots."
    Rather than annotating the upstream snapshot (it is read-only), we
    exploit a fact about the refresh protocol itself: {e the message stream
    applied to a snapshot is a complete change feed over its contents}.  A
    derived snapshot with its own restriction and projection is maintained
    by transforming each upstream message:

    - [Upsert]/[Entry] whose value satisfies the derived restriction pass
      through (projected); one whose value does not becomes the
      corresponding deletion ([Remove], or a [Region] covering the entry's
      range-delete span);
    - [Remove]/[Region]/[Tail]/[Clear] pass through unchanged — deletions
      upstream are deletions downstream;
    - [Snaptime] passes through: the derived snapshot is exactly as fresh
      as its parent, and updates in lock-step with the parent's refreshes
      at zero extra base-table cost.

    BaseAddrs are shared with the parent (and transitively with the
    original base table), so the derived snapshot is itself cascadable.

    Messages travel framed under the parent's open epoch (raw only when
    the parent applies raw), so the child commits exactly the parent's
    epochs; one {!Refresh_msg.writer} per parent epoch batches their data
    messages as a manager refresh stream does, at
    {!Refresh_msg.default_batch_size}.  The child's link never fails the parent.  A child whose send
    raised, or whose last committed epoch is not the parent's at a new
    parent epoch's first message, gets that epoch's image instead of its
    deltas — [Clear], the qualifying rows, the Snaptime, as {!attach}'s
    initial sync sends them, less the [Clear] to its new, empty child —
    and keeps its last committed image until then. *)

open Snapdiff_storage
module Link = Snapdiff_net.Link

type t

val attach :
  upstream:Snapshot_table.t ->
  name:string ->
  ?restrict:(Tuple.t -> bool) ->
  ?projection:string list ->
  ?link:Link.t ->
  unit ->
  t
(** Create the derived snapshot, initially synchronized with the parent's
    current contents, and subscribe it to the parent's message stream;
    from then on every parent refresh propagates through [link] (fresh
    in-process link by default).  [restrict] and [projection] apply to the
    {e parent's} (already projected) schema.  Raises [Invalid_argument] on
    unknown projection columns. *)

val table : t -> Snapshot_table.t
(** The derived snapshot's table (queryable, indexable, cascadable). *)

val link : t -> Link.t

val messages_forwarded : t -> int
(** Data messages handed to the child's stream since attach. *)
