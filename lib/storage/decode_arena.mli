(** Reused scratch for the zero-copy page decode path.

    {!load} snapshots a pinned page's image into the arena's scratch
    buffer (one [blit], no per-record copies) together with its live
    record spans; {!iter} then decodes each record in place with a
    {!Codec.Cursor}, yielding exactly what [Heap.iter_page] would have
    yielded for the same page state but without the per-record
    [Bytes.sub] and per-field offset-pair allocations.

    An arena is {e not} domain-safe: each scan cursor owns one and reuses
    it across pages.  Because [load] copies, [iter] runs
    without a pin and is unaffected by page mutations after the load —
    the same snapshot-then-decode contract as [Heap.iter_page]. *)

type t

val create : unit -> t

val load : t -> Page.t -> unit
(** Snapshot [page]'s bytes and live spans into the arena.  Call while
    the page is pinned; replaces whatever the arena held before. *)

val iter : t -> (int -> Tuple.t -> unit) -> unit
(** [iter t f] decodes the records captured by the last {!load} in
    ascending slot order and calls [f slot tuple] for each.  Raises
    [Failure] exactly where [Tuple.decode_exactly] would (corrupt tag,
    truncation, trailing bytes). *)
