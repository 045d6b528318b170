(** Simulated communication links between database sites.

    The paper's evaluation metric is message traffic between the base-table
    site and (remote) snapshot sites, so the "network" here is an exact
    cost-accounting device: every {!send} counts one message and
    [header + payload] bytes, and delivers the payload synchronously to the
    receiver installed with {!attach}.

    Links can be taken down ({!set_up}) to exercise the failure behaviour
    the paper holds against ASAP propagation, and can be armed with a
    seeded fault plan ({!inject_faults}) that loses, corrupts, or outages
    messages mid-stream — the adversary the epoch-framed refresh transport
    is built to survive. *)

exception Link_down of string

exception No_receiver of string
(** Raised by {!send} when no receiver is attached: a wiring error, not a
    transient fault — carries the link name.  Unlike {!Link_down} it is
    not retryable; refresh surfaces it as a configuration failure. *)

type stats = {
  messages : int;  (** physical frames put on the wire *)
  logical_messages : int;
      (** refresh-protocol messages carried by those frames; equals
          [messages] unless senders batch several into one frame *)
  bytes : int;  (** includes per-message header overhead *)
  payload_bytes : int;
  dropped : int;  (** sends that did not reach the receiver, any cause *)
  injected_drops : int;  (** fault plan: silently lost messages *)
  injected_corruptions : int;  (** fault plan: payload bytes garbled in flight *)
  injected_failures : int;  (** fault plan: outages surfaced as {!Link_down} *)
}

val pp_stats : Format.formatter -> stats -> unit

type t

val create :
  ?name:string ->
  ?header_bytes:int ->
  ?latency_us:float ->
  ?bytes_per_sec:float ->
  unit ->
  t
(** [header_bytes] is the fixed per-message overhead (default 32, a
    plausible transport header).  [latency_us] (per message, default 0)
    and [bytes_per_sec] (default infinite) feed the simulated transfer
    clock: the evaluation metric is message count, but the simulated time
    makes "how long would this refresh take on a 1986 line" computable. *)

val simulated_time_us : t -> float
(** Accumulated transfer time of everything sent:
    [messages * latency + bytes / bandwidth], in microseconds. *)

val advance_time : t -> float -> unit
(** Add [us] microseconds of non-transfer time (e.g. retry backoff) to the
    simulated clock.  Negative values are ignored. *)

val attach : t -> (bytes -> int -> unit) -> unit
(** Install the receiving end, which is called with each delivered
    payload [(b, len)]: the payload is [b]'s first [len] bytes.  [b] is
    borrowed for the call: the sender may write its next frame into it
    once the receiver returns, so a receiver that keeps a payload must
    copy it.  Replaces any previous receiver. *)

val detach : t -> unit
(** Remove the receiver; subsequent {!send}s raise {!No_receiver}. *)

val send : t -> ?logical:int -> ?len:int -> bytes -> unit
(** Deliver the first [len] bytes of the payload (default: all of it)
    synchronously, lending the buffer to the receiver for the call.
    Raises {!Link_down} (after counting the drop) if the link is down or
    an injected outage fires; raises {!No_receiver} if no receiver is
    attached.  Under an armed fault plan the message may also be silently
    lost or delivered corrupted (a garbled copy) — the sender cannot
    tell, which is the point.  [logical] (default 1) is the number of
    protocol messages this frame carries, for the paper's message-count
    metric when frames are batched. *)

val try_send : t -> ?logical:int -> bytes -> bool
(** Like {!send} but returns [false] instead of raising when down. *)

val is_up : t -> bool

val set_up : t -> bool -> unit

val inject_faults :
  t ->
  ?drop_prob:float ->
  ?corrupt_prob:float ->
  ?fail_after:int ->
  ?partitions:(int * int) list ->
  seed:int ->
  unit ->
  unit
(** Arm a deterministic fault plan, replacing any previous one.
    [drop_prob] / [corrupt_prob] apply independently per message from a
    {!Snapdiff_util.Rng} seeded with [seed].  [fail_after:n] raises
    {!Link_down} on the (n+1)-th send and then disarms (a transient
    crash).  [partitions] are inclusive [(lo, hi)] windows of send
    indices (1-based, counted from arming) during which every send raises
    {!Link_down}. *)

val clear_faults : t -> unit

val stats : t -> stats

val reset_stats : t -> unit
