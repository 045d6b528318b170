(** The SQL execution engine: a single-site database of base tables plus
    the snapshot catalog, driven by {!Ast.stmt} values.

    Snapshots are read-only ("a snapshot is a read-only table") — they can
    be SELECTed like any table, but INSERT/UPDATE/DELETE against one is an
    error.  All tables share one logical clock and (optionally) one WAL, so
    [REFRESH LOGBASED] snapshots see the realistic multi-table log the
    paper worries about culling. *)

open Snapdiff_storage
module Manager = Snapdiff_core.Manager

exception Sql_error of string

type result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int  (** rows touched by INSERT/UPDATE/DELETE *)
  | Created of string
  | Dropped of string
  | Refreshed of Manager.refresh_report
  | Info of string list  (** SHOW / EXPLAIN output lines *)

type t

val create : ?wal:bool -> unit -> t
(** [wal] (default true) attaches a shared write-ahead log to every table
    created, enabling [REFRESH LOGBASED]. *)

val manager : t -> Manager.t

val clock : t -> Snapdiff_txn.Clock.t

val execute : t -> Ast.stmt -> result
(** Raises {!Sql_error} on semantic errors (unknown table, type errors,
    writes to snapshots...). *)

val run : t -> string -> result
(** Parse one statement and execute it. *)

val run_script : t -> string -> (Ast.stmt * result) list
(** Parse and execute a ';'-separated script, stopping at the first
    error. *)

val render_result : result -> string
(** Human-readable rendering (aligned tables for [Rows]). *)

val snapshot_link : t -> string -> Snapdiff_net.Link.t
(** The link a snapshot's refresh streams arrive on — a manager
    snapshot's, a query snapshot's or a cascade's own — for reading its
    traffic or arming its faults.  Raises {!Sql_error} for an unknown
    snapshot. *)

val snapshot_table : t -> string -> Snapdiff_core.Snapshot_table.t
(** The replica a snapshot's refresh streams apply to, the receiver a
    test re-attaches to {!snapshot_link}.  Raises {!Sql_error} for an
    unknown snapshot. *)

val index_scans : t -> int
(** How many SELECTs were answered through a snapshot's secondary index
    (the equality fast path), for tests and EXPLAIN-style introspection. *)
