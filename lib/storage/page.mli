(** Slotted pages.

    Classic layout over a fixed-size byte array:

    {v
    +--------+----------------------+--------······--------+
    | header | slot directory ----> |  free  <---- records |
    +--------+----------------------+--------······--------+
    v}

    The header is 4 bytes: [u16 nslots] and [u16 free_ptr] (offset of the
    lowest used record byte; records are allocated downward from the page
    end).  Each slot directory entry is 4 bytes: [u16 offset] (0 = empty
    slot) and [u16 length].  Slot numbers are stable for the lifetime of
    the page — deletion tombstones the slot, it may later be reused by an
    insertion — which is what makes (page, slot) a usable {!Addr.t}.

    Offsets are 16-bit, so [page_size] must be at most 65536. *)

type t

val min_page_size : int
val max_page_size : int

val create : page_size:int -> t
(** A fresh, empty page.  Raises [Invalid_argument] on a bad size. *)

val of_bytes : bytes -> t
(** Adopt (not copy) an existing page image.  Raises [Failure] if the
    header is structurally invalid. *)

val bytes : t -> bytes
(** The backing array (shared, not a copy). *)

val page_size : t -> int

val nslots : t -> int
(** Size of the slot directory, including empty slots. *)

val live_records : t -> int

val slot_is_live : t -> int -> bool
(** False for empty slots and out-of-range slot numbers. *)

val live_bytes : t -> int
(** Total length of the live records.  O(1): the page keeps it current
    (with the count of empty directory entries) through every mutation. *)

val first_empty_slot : t -> int option
(** The lowest-numbered empty directory entry, if any.  O(1) when the
    directory has no empty entries; otherwise a scan up to the first. *)

val free_space_for_insert : t -> int
(** Length of the largest record currently insertable (accounting for a new
    directory entry if no empty slot is available, and assuming compaction).
    O(1). *)

val insert : t -> bytes -> int option
(** [insert t record] places the record in the lowest-numbered empty slot
    (or a fresh slot) and returns the slot number, or [None] if it cannot
    fit even after compaction.  Raises [Invalid_argument] on an empty
    record or one longer than the page can ever hold. *)

val insert_at : t -> int -> bytes -> bool
(** [insert_at t slot record] places the record in exactly [slot] (used by
    physical redo recovery to restore a record at its original rid),
    extending the slot directory with empty slots if needed.  Returns
    [false] if the slot is live or the record cannot fit. *)

val read : t -> int -> bytes option
(** Copy of the record in the slot; [None] if empty or out of range. *)

val delete : t -> int -> bool
(** Tombstone the slot.  Returns whether it was live. *)

val update : t -> int -> bytes -> bool
(** Replace the record in a live slot, compacting if needed; the slot number
    is preserved.  Returns [false] (leaving the page unchanged) if the slot
    is not live or the new record cannot fit. *)

val overwrite_tail : t -> int -> bytes -> bool
(** [overwrite_tail t slot src] overwrites the last [Bytes.length src]
    bytes of the live record in [slot] with [src], in place: the record
    keeps its offset and length, and only those bytes are marked dirty.
    Returns [false] (leaving the page unchanged) if the slot is not live
    or the record is shorter than [src]. *)

val iter_live : t -> (int -> bytes -> unit) -> unit
(** Live slots in ascending slot order. *)

val fold_live : t -> init:'a -> f:('a -> int -> bytes -> 'a) -> 'a

val iter_live_spans : t -> (int -> off:int -> len:int -> unit) -> unit
(** Like {!iter_live} but yields each live record's byte span inside
    {!bytes} instead of copying it out — the zero-copy decode path reads
    records in place.  The spans are only valid until the page is next
    mutated. *)

val compact : t -> unit
(** Defragment the record area.  Slot numbers and contents are unchanged. *)

(** {2 Dirty-range tracking}

    Every mutating primitive records the byte span it wrote in a short
    list of disjoint ranges (coalesced, capped at a few entries by merging
    the closest pair — an over-approximation, never an omission).  Since a
    page adopted with {!of_bytes} can only diverge from the adopted image
    through these primitives, the ranges bound exactly where the in-memory
    page differs from its backing-store image; the buffer pool uses them
    to write back sub-page ranges instead of whole pages. *)

val dirty_ranges : t -> (int * int) list
(** [(off, len)] spans modified since the last {!reset_dirty_ranges}, in
    ascending offset order; empty means untouched. *)

val dirty_bytes : t -> int
(** Total bytes covered by {!dirty_ranges}. *)

val reset_dirty_ranges : t -> unit
(** Forget tracked ranges (called after a write-back made the store image
    match the page again). *)

val validate : t -> (unit, string) result
(** Structural integrity check (offsets in bounds, no overlaps). *)
