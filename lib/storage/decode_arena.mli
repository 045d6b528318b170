(** Reused scratch for the zero-copy page paths.

    {!load} snapshots a pinned page's image into the arena's scratch
    buffer (one [blit], no per-record copies) together with its live
    record spans.  {!walk} records each field's offset
    ({!Codec.Cursor.walk}) and {!fields} reads a walked record field by
    field: the scans' path, which decodes only the fields a restriction
    reads and copies a sent row's fields as bytes.

    An arena is {e not} domain-safe: each scan cursor owns one and reuses
    it across pages.  Because [load] copies, the readers run without a
    pin and are unaffected by page mutations after the load — the same
    snapshot-then-decode contract as [Heap.iter_page]. *)

type t

val create : unit -> t

val load : t -> Page.t -> unit
(** Snapshot [page]'s bytes and live spans into the arena.  Call while
    the page is pinned; replaces whatever the arena held before. *)

val length : t -> int
(** Live records captured by the last {!load}. *)

val slot : t -> int -> int
(** [slot t k]: the slot of the [k]-th captured record (ascending). *)

val walk : t -> int -> unit
(** [walk t k] records the field offsets of the [k]-th captured record.
    Walk records in order [0, 1, ...]: record [k]'s offsets are stored
    after record [k-1]'s.  Raises [Failure] exactly where
    [Codec.tuple_of_bytes] on the record would. *)

val fields : t -> int -> Codec.Fields.t
(** The walked record [k].  The arena owns one view and re-points it on
    every call, so a view is valid until the next [fields] or [load]. *)

val filter : t -> (Codec.Fields.t -> bool) -> Bytes.t -> unit
(** [filter t pred bits] sets byte [k] of [bits] to 1 if [pred] holds on
    walked record [k] and to 0 otherwise, for every record captured by
    the last {!load}, all of them walked.  [bits] must hold {!length}
    bytes. *)
