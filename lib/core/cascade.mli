(** Cascaded snapshots: a snapshot derived from another snapshot.

    The paper: "snapshots can serve as base tables for other snapshots."
    The parent is read-only, so it carries no annotations; instead its
    page table keeps every committed image it publishes immutable, and a
    page no commit touched is shared by all the images since.  So a
    child refreshes the way the paper's refresh does, by comparing what
    it last saw with the table now, in address order, and sending what
    changed:

    - the child holds one pinned parent image, its {e held epoch}: a
      {!Snapshot_table.read_txn} whose pin names [cascade:<child>];
    - {!refresh} pins the parent's current committed image and diffs the
      two ({!Version_store.diff}): it skips every page the two images
      share and merges the rest by BaseAddr;
    - each address whose restricted and projected row changed becomes an
      [Upsert] or a [Remove], sent through one {!Refresh_msg.writer}
      under a fresh epoch of the child's own, closed by the parent
      image's [Snaptime].

    BaseAddrs are shared with the parent (and transitively with the
    original base table), so the derived snapshot is itself cascadable.
    The parent's refresh does no work for its children. *)

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
(** Create the derived snapshot, empty and holding no parent epoch, on
    [link] (fresh in-process link by default).  Its first {!refresh} is
    the same diff, against the empty image: it sends every qualifying
    row.  [restrict] and [projection] apply to the {e parent's} (already
    projected) schema.  Raises [Invalid_argument] on unknown projection
    columns. *)

val refresh : t -> Manager.refresh_report
(** Bring the child to the parent's current committed image, in a
    [refresh] trace span of its own.  Once the child commits, the new
    image is the held epoch and the old pin is released.  A stream that
    fails (the link goes down, a frame is lost or garbled) leaves the
    child on its image and its held epoch, so the next refresh diffs
    again from there; the report then counts one abort.
    [entries_scanned] is the rows the diff compared, [data_messages] the
    child rows it changed. *)

val detach : t -> unit
(** Release the held epoch's pin, as when the child is dropped.  A later
    {!refresh} diffs against the empty image. *)

val held_epoch : t -> int
(** The parent epoch the child holds; [-1] while it holds none. *)

val table : t -> Snapshot_table.t
(** The derived snapshot's table (queryable, indexable, cascadable). *)

val link : t -> Link.t
