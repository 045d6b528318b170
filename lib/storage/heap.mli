(** Heap tables: schema-typed tuples in slotted pages behind a buffer pool.

    Entry addresses are {!Addr.t} (page, slot) pairs; {!iter} visits live
    entries in strictly increasing address order, which is the address-order
    scan the refresh algorithms require.  Insertion is first-fit from a
    hint: the page the previous insert landed on, lowered by every delete
    below it.  Populating with rows of one size therefore probes O(1)
    pages per row and lays rows out as lowest-first-fit would, and freed
    addresses are still reused ("insert the entry into some empty
    address of the base table").

    The callback of {!iter} may [update] or [delete] the entry it is
    currently visiting (the combined fix-up + refresh scan needs this); it
    must not insert. *)

type t

val create : ?page_size:int -> ?frames:int -> ?fill_factor:float -> Schema.t -> t
(** Fresh heap over a private in-memory store.  [fill_factor] (default
    0.9) stops first-fit insertion from packing a page completely, keeping
    headroom so in-place updates that grow a record (or annotation
    stamping) do not overflow the page. *)

val on_pool : ?fill_factor:float -> Buffer_pool.t -> Schema.t -> t
(** Attach to an existing (possibly non-empty) store: page 0 is the header,
    data pages follow; live entries are discovered by scanning.  A fresh
    store is initialized. *)

val schema : t -> Schema.t

val pool : t -> Buffer_pool.t

val count : t -> int
(** Number of live entries. *)

val data_pages : t -> int

val noted_free : t -> page:int -> int option
(** The insertable bytes first-fit insertion believes the data page has
    (its {!Page.free_space_for_insert} as of the page's last mutation),
    or [None] for a page insertion has not seen. *)

exception Tuple_error of string
(** Raised when a tuple does not validate against the schema, or is too
    large for a page. *)

val insert : t -> Tuple.t -> Addr.t

val insert_at : t -> Addr.t -> Tuple.t -> unit
(** Place a tuple at an exact address (physical redo recovery), allocating
    intervening pages if needed.  Raises [Tuple_error] if the address is
    occupied or the record cannot fit in that page. *)

val get : t -> Addr.t -> Tuple.t option

val mem : t -> Addr.t -> bool

val read_record : t -> Addr.t -> bytes option
(** A copy of the entry's encoded record, undecoded. *)

val update : t -> Addr.t -> Tuple.t -> unit
(** Replace the entry at [addr], keeping its address.  Raises [Not_found]
    if there is no live entry there; [Tuple_error] if the new tuple cannot
    fit in the entry's page. *)

val patch_tail : t -> Addr.t -> bytes -> unit
(** [patch_tail t addr src] overwrites the last [Bytes.length src] bytes
    of the entry's encoded record in place ({!Page.overwrite_tail}): no
    decode, no re-encode, no validation, and only those bytes become
    dirty.  The caller guarantees [src] is a valid encoding of the fields
    it replaces.  Raises [Not_found] if there is no live entry at [addr],
    [Invalid_argument] if the record is shorter than [src]. *)

val delete : t -> Addr.t -> unit
(** Raises [Not_found] if there is no live entry at [addr]. *)

val iter : t -> (Addr.t -> Tuple.t -> unit) -> unit

val iter_page : t -> page:int -> (Addr.t -> Tuple.t -> unit) -> unit
(** Visit the live entries of one data page in slot order — {!iter}
    restricted to page [page] ([1 <= page <= data_pages]).  The page-wise
    scans of the pruned refresh path drive this directly so they can skip
    whole pages without decoding them.  Raises [Invalid_argument] for a
    page outside the store. *)

val load_page : t -> arena:Decode_arena.t -> page:int -> (Page.t -> bool) -> unit
(** [load_page t ~arena ~page f] pins data page [page] once, snapshots it
    into [arena] ({!Decode_arena.load}), then runs [f] on the still-pinned
    page.  [f] may write the page in place (the scans patch annotation
    tails with {!Page.overwrite_tail}) and returns whether it did; the
    frame is then marked dirty once.  Raises [Invalid_argument] for a
    page outside the store. *)

val fold : t -> init:'a -> f:('a -> Addr.t -> Tuple.t -> 'a) -> 'a

val to_list : t -> (Addr.t * Tuple.t) list
(** In address order. *)

val first_addr : t -> Addr.t option
val last_addr : t -> Addr.t option

val flush : t -> unit
(** Flush the buffer pool to the store. *)

val validate : t -> (unit, string) result
(** Structural check of every data page plus tuple decodability. *)
