(** Messages sent from the base-table site to a snapshot site during
    refresh.

    One type covers every refresh method in the paper so that all methods
    are measured with the same cost meter:

    - {!Entry} and {!Tail} are the differential (PrevAddr) algorithm's
      messages: an entry transmission carries "the address of the preceding
      qualified entry and the value of the entry" (Figure 3), deleting
      every snapshot entry strictly between them; the unconditional tail
      message [Xmit(NULL, LastQual, NULL)] handles deletions at the end of
      the base table.
    - {!Region} is the empty-regions variant's message: the bounds of a
      (possibly combined) empty region.
    - {!Upsert}/{!Remove} are the per-address messages of the simple dense
      algorithm, the ideal algorithm, ASAP propagation and the log-based
      method.
    - {!Clear} precedes a full refresh ("the snapshot is first cleared").
    - {!Snaptime} closes every refresh: "the current (base table) time is
      sent to the snapshot to become the new SnapTime".

    Rows carried are already restricted and projected: "this allows each
    (remote) snapshot to extract only needed data from the base table".
    A row travels as its encoded bytes ({!Snapdiff_storage.Row}): the
    scans copy it out of the base record, the writer copies it into the
    frame, and the receiver decodes it once, when it replays it. *)

open Snapdiff_storage

type t =
  | Entry of { addr : Addr.t; prev_qual : Addr.t; row : Row.t }
  | Tail of { last_qual : Addr.t }
  | Region of { lo : Addr.t; hi : Addr.t }  (** inclusive bounds *)
  | Upsert of { addr : Addr.t; row : Row.t }
  | Remove of { addr : Addr.t }
  | Clear
  | Snaptime of Snapdiff_txn.Clock.ts
  | Register of { restrict : string; projection : string list }
      (** control, snapshot->base at CREATE SNAPSHOT: the restriction and
          projection the base will compile (R* sends them once) *)
  | Request of { snaptime : Snapdiff_txn.Clock.ts }
      (** control, snapshot->base: "the simple differential refresh
          algorithm is initiated by sending the last snapshot refresh time
          (SnapTime) ... to the base table" *)
  | Batch of t list
      (** transport coalescing: many data messages under one link header
          and checksum.  The receiver unbatches before applying, so batch
          boundaries never have protocol meaning; the commit-marking
          {!Snaptime} is never batched. *)

val is_data : t -> bool
(** Messages counted by the paper's evaluation metric (everything except
    the fixed {!Clear}/{!Snaptime} bracketing).  A {!Batch} is data iff it
    carries any data message. *)

val batchable : t -> bool
(** Messages a sender may coalesce into a {!Batch}: exactly the per-entry
    data messages.  Control messages — in particular the commit-marking
    {!Snaptime} — always travel alone, which guarantees any buffered
    batch is flushed before the stream can commit. *)

val logical_count : t -> int
(** Number of protocol messages this value represents: the batch size for
    a {!Batch} (recursively), 1 otherwise. *)

val pp : Format.formatter -> t -> unit

val encode : t -> bytes

val decode : bytes -> t
(** Raises [Failure] on a corrupt image. *)

val equal : t -> t -> bool

(** {1 Epoch framing}

    A refresh stream is only meaningful as a whole: applying a prefix
    (link crash), a subsequence (silent loss), or a garbled member
    (corruption) leaves the snapshot in a state that is neither the old
    nor the new consistent image.  Framed messages carry the stream's
    epoch, a sequence number, and a payload checksum so the receiver can
    detect all three and apply the stream atomically at its {!Snaptime}
    commit marker.  The frame tag byte is disjoint from every raw message
    tag, so framed and legacy raw encodings coexist on the same links. *)

type frame = { epoch : int; seq : int; msg : t }

exception Corrupt of string

val encode_framed : epoch:int -> seq:int -> t -> bytes

val is_framed : bytes -> bool

val decode_framed : bytes -> frame
(** Raises {!Corrupt} on a checksum mismatch, an undecodable payload, or
    a truncated frame. *)

(** {1 The stream writer}

    Every framed refresh stream — a manager refresh, a cascade's diff
    of its parent's epochs, a query snapshot's re-evaluation — is sent
    through one {!writer}, which owns the stream's sequence numbers, its
    batching and its encode time. *)

val default_batch_size : int
(** 64: a {!writer}'s [batch_size] when none is given. *)

type writer

val writer : ?batch_size:int -> epoch:int -> Snapdiff_net.Link.t -> writer
(** A writer for one stream, framed under [epoch], onto the link. *)

val write : writer -> t -> unit
(** Up to [batch_size] consecutive {!batchable} messages travel as one
    {!Batch} frame, a lone buffered one unwrapped; any other message
    first flushes the buffer, then travels alone — so a stream's
    trailing data reaches the link before its {!Snaptime}.  At
    [batch_size = 1] every message is its own frame.  Each frame is
    sent with [Link.send ~logical] and numbered by the frames the link
    has accepted in this stream, so a stream can go on after a send that
    raised without leaving a sequence gap.  Raises what [Link.send]
    raises; the frame's messages are then gone from the buffer. *)

val encode_us : writer -> float
(** Time spent in {!encode_framed} so far, for the refresh ledger's
    [sender.encode_us]. *)
