(** Page stores: the "disk".

    A page store holds numbered fixed-size pages.  Two implementations are
    provided: an in-memory store (the default for simulation — the paper's
    evaluation metric is message traffic, not I/O) and a Unix-file-backed
    store for durability tests together with the WAL. *)

type t

exception Bad_page of int

val page_size : t -> int

val page_count : t -> int
(** Pages are numbered [0 .. page_count - 1].  Page 0 is conventionally a
    header page owned by the structure stored in the file (heap, log...). *)

val read : t -> int -> bytes
(** A copy of the page image.  Raises [Bad_page] if out of range. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t n buf] overwrites [buf] with page [n]'s image, allocating
    nothing — the buffer pool's miss path reads into the evicted frame's
    own buffer.  Raises [Bad_page] if out of range, [Invalid_argument] if
    [buf] is not exactly one page long. *)

val write : t -> int -> bytes -> unit
(** Stores a copy of the image (the caller keeps ownership of [page]).
    Raises [Bad_page] if out of range, [Invalid_argument] on a wrong-size
    image. *)

val write_range : t -> int -> bytes -> off:int -> len:int -> unit
(** [write_range t n page ~off ~len] writes only bytes
    [\[off, off + len)] of the page image to the stored page — the
    sub-page write-back path for pages whose dirty ranges are known.
    [page] must still be a full page image (the range is taken from it at
    the same offset).  A zero-length range is a no-op.  Raises [Bad_page]
    or [Invalid_argument] as {!write}. *)

val write_ranges : t -> int -> bytes -> (int * int) list -> unit
(** [write_ranges t n page ranges] writes each [(off, len)] range of the
    page image, counting the whole call as {e one} page write in
    {!writes_performed} (and one entry per range in
    {!range_writes_performed}) — the one-call-per-page-writeback entry
    point {!Buffer_pool} uses so write counts stay comparable between
    whole-page and sub-page write-back.  Zero-length ranges are skipped;
    an empty (or all-empty) list is a no-op and counts nothing.  Raises
    as {!write_range}. *)

val allocate : t -> int
(** Append a zeroed page; returns its number. *)

val sync : t -> unit
(** Force to stable storage (no-op for the memory store). *)

val close : t -> unit

val writes_performed : t -> int
(** I/O counters for cost accounting in benchmarks.  [writes_performed]
    counts page writebacks: one per {!write} and one per (non-empty)
    {!write_ranges} call, however many sub-ranges carried it. *)

val range_writes_performed : t -> int
(** Individual sub-page range writes issued via {!write_range} /
    {!write_ranges}. *)

val bytes_written : t -> int
(** Bytes actually written ({!write} counts a whole page, {!write_range}
    only the range) — the write-amplification measure. *)

val in_memory : ?page_size:int -> unit -> t
(** Fresh empty memory store ([page_size] defaults to 4096). *)

val open_file : ?page_size:int -> string -> t
(** Open or create a file-backed store.  If the file exists its recorded
    page size must match [page_size] when both are given; an existing
    store's page size wins otherwise.  Raises [Failure] on a corrupt or
    mismatched file. *)
