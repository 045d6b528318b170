(** Exact change capture — the substrate of the paper's *ideal* refresh
    algorithm.

    "The ideal algorithm transmits only actual base table changes to the
    (restricted) snapshot and only the most recent change to each entry
    (since refresh).  The ideal algorithm uses old and new values of
    changed entries to insure that changes to unqualified entries are not
    transmitted."

    A change log is a growing sequence of old/new-value change records over
    one base table (exactly what DBMSs later shipped as "materialized view
    logs").  Each snapshot keeps a cursor (the sequence number at its last
    refresh); {!net_since} folds everything after a cursor into a per-address
    (value before, value after) pair, which is all the ideal algorithm and
    ASAP propagation need.

    Note what the paper points out about this design: unlike base-table
    annotation, the log grows with update volume and can only be truncated
    below the *slowest* snapshot's cursor ({!truncate_below}). *)

open Snapdiff_storage

type change =
  | Insert of Addr.t * Tuple.t
  | Delete of Addr.t * Tuple.t  (** old value *)
  | Update of Addr.t * Tuple.t * Tuple.t  (** old, new *)

type seq = int
(** Sequence numbers; a cursor of [0] sees every change. *)

type t

val create : unit -> t

val append : t -> change -> seq
(** Returns the sequence number assigned (1, 2, ...). *)

val current_seq : t -> seq
(** Largest assigned sequence number (0 when empty). *)

val length : t -> int
(** Changes currently retained. *)

type net = {
  before : Tuple.t option;  (** state at the cursor; [None] = did not exist *)
  after : Tuple.t option;  (** state now; [None] = does not exist *)
}

val net_since : t -> seq -> (Addr.t * net) list
(** Net effect per address, in address order; addresses whose before and
    after are both [None] (inserted then deleted inside the window) are
    omitted, as are addresses where nothing changed.  Raises
    [Invalid_argument] if the cursor is below the truncation point. *)

val truncate_below : t -> seq -> unit
(** Discard changes with sequence numbers <= the given cursor.  Safe only
    once every snapshot's cursor is at or above it. *)

val oldest_retained : t -> seq
(** Smallest cursor that {!net_since} still accepts. *)
