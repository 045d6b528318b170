(** Per-site logical clocks.

    The paper only requires "any local, monotonically increasing value" as
    the time base for base-table timestamps, e.g. "the local standard time,
    or a local, recoverable counter".  We use a counter: deterministic,
    serializable, and trivially recoverable.

    In the deferred-maintenance scheme, ordinary base-table operations never
    read the clock (they write NULL annotations); "only snapshot refresh
    events need to occur at distinct times", so refresh draws one tick. *)

type t

type ts = int
(** Timestamps.  Larger = later.  [0] is "before all refreshes": a snapshot
    that has never been refreshed carries [SnapTime = 0]. *)

val never : ts
(** [0]. *)

val create : ?start:ts -> unit -> t
(** [start] defaults to {!never}. *)

val now : t -> ts
(** Read without advancing. *)

val tick : t -> ts
(** Advance to a fresh, strictly greater timestamp and return it. *)

val advance_to : t -> ts -> unit
(** Ensure [now t >= ts]; used when recovering a persisted clock. *)
