(** A WAL's retention horizon: the single source of its truncation floor.

    Every consumer of the log's history — a chunked scan's catch-up
    window, a log-based snapshot's cursor, a running checkpoint —
    registers a {!Lease.t} here; the floor truncation may advance to is
    the minimum LSN over live leases.  Nothing else holds truncation
    back: if a component needs old log records, it holds a lease, and if
    it holds a lease, the records stay.

    Snapshot versions have no horizon: a version lives while the epoch
    ring or a pin holds it ({!Snapdiff_mvcc.Version_store}).

    Thread-safe: leases are acquired and released from any domain
    concurrently with checkpoints. *)

type t

val create : unit -> t

val acquire : t -> kind:Lease.kind -> ?holder:string -> lsn:int -> unit -> Lease.t
(** Register a lease on [lsn], the oldest WAL LSN the consumer needs.
    [holder] is a diagnostic label (defaults to ["?"]).  Release with
    {!Lease.release}. *)

val with_lease :
  t -> kind:Lease.kind -> ?holder:string -> lsn:int -> (Lease.t -> 'a) -> 'a
(** [acquire], run the function, release — also on exceptions. *)

val lease_count : t -> int

val lsn_floor : t -> ceiling:int -> int * Lease.gating list
(** The highest LSN reclamation may truncate to, at most [ceiling] (the
    reclaimer's own bound, e.g. a checkpoint's begin LSN), lowered to the
    oldest leased LSN.  The gating list names every live lease whose LSN
    is below the ceiling — what held the floor down — sorted by LSN. *)
