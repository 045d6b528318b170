(** A lease: one consumer's claim on a WAL's history.

    Every consumer of log records that truncation could otherwise discard
    — an in-flight chunked scan replaying the WAL tail, a log-based
    refresh cursor, a running checkpoint — holds a lease naming the
    oldest LSN it still needs.  Truncation ({!Horizon.lsn_floor})
    computes its floor as the minimum over live leases, so holding a
    lease is both necessary and sufficient to keep the named LSN alive:
    [Catchup_truncated] is impossible for a leased scan because the
    truncation that would cause it cannot pass the lease's LSN.

    Snapshot versions are not leased: the version store's own pins keep
    a pinned epoch alive ({!Snapdiff_mvcc.Version_store.pin}).

    Leases are acquired from a {!Horizon} (which owns the registry) and
    released here; {!release} is idempotent and exception-safe call sites
    should pair acquire/release with [Fun.protect] (or use
    {!Horizon.with_lease}). *)

type kind =
  | Scan  (** a chunked refresh scan's WAL-tail catch-up window *)
  | Log_cursor  (** a log-based snapshot's persistent refresh cursor *)
  | Checkpoint  (** a fuzzy checkpoint's redo window while it runs *)

val kind_name : kind -> string
(** ["scan"], ["log-cursor"], ["checkpoint"]. *)

type t

val make : kind:kind -> holder:string -> lsn:int -> t
(** Used by {!Horizon.acquire}; not intended for direct use. *)

val set_on_release : t -> (unit -> unit) -> unit
(** Installed by the owning horizon to unregister the lease. *)

val lsn : t -> int
(** The oldest WAL LSN this lease still needs. *)

val live : t -> bool
(** False after {!release}. *)

val release : t -> unit
(** Idempotent.  Drops the lease from its horizon; the floor recomputes
    on the next query. *)

val move_lsn : t -> int -> unit
(** Advance the leased LSN — a log cursor moving forward after a
    committed refresh.  No-op on a released lease. *)

(** One lease that held a truncation floor below its ceiling — the
    operator-facing "what gated this checkpoint" report. *)
type gating = { g_kind : kind; g_holder : string; g_lsn : int }

val gating_of : t -> gating
(** The lease's kind, holder and current LSN. *)

val gating_to_string : gating -> string
(** ["kind:holder@lsn"]. *)
