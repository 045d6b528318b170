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

val is_data : t -> bool
(** Messages counted by the paper's evaluation metric: everything except
    the {!Clear}/{!Snaptime} bracketing and the control messages. *)

val pp : Format.formatter -> t -> unit

val encode : t -> bytes

val decode : ?len:int -> bytes -> t
(** The message that fills the first [len] bytes (default: all).  Raises
    [Failure] on a corrupt image. *)

val equal : t -> t -> bool

(** {1 Frames}

    A refresh stream is only meaningful as a whole: applying a prefix
    (link crash), a subsequence (silent loss), or a garbled message
    (corruption) leaves the snapshot in a state that is neither the old
    nor the new consistent image.  Each frame carries the stream's epoch,
    a sequence number and a payload checksum, so the receiver can detect
    all three and apply the stream atomically at its commit marker, a
    frame of one {!Snaptime}.

    The {!writer} owns the layout: tag [0xF7], epoch and seq as i64, the
    u32 {!Snapdiff_storage.Codec.checksum} of the payload with epoch and
    seq folded in as 32-bit words (low half first) by
    {!Snapdiff_storage.Codec.checksum_word}, then
    the payload — a lone message, or a run of any other number of
    messages: tag [10], a u32 count, then each message behind its u32
    length.  Both tags are disjoint from every message tag, so framed and
    raw encodings coexist on the same links. *)

exception Corrupt of string

val default_batch_size : int
(** 64: a {!writer}'s [batch_size] when none is given. *)

type writer
(** Every framed refresh stream — a manager refresh, a cascade's diff of
    its parent's epochs, a query snapshot's re-evaluation — is sent
    through one writer, which owns its sequence numbers, its batching,
    and one frame buffer that each message is written into as it
    arrives. *)

val writer : ?batch_size:int -> epoch:int -> Snapdiff_net.Link.t -> writer
(** A writer for one stream, framed under [epoch], onto the link. *)

val write : writer -> t -> unit
(** Up to [batch_size] consecutive {!is_data} messages travel as one
    frame; any other message first sends the frame in progress, then
    travels alone, so a stream's trailing data reaches the link before
    its {!Snaptime}.  Each frame goes to [Link.send ~logical ~len] in the
    writer's buffer, borrowed for the call, numbered by the frames the
    link has accepted in this stream, so a stream can go on after a send
    that raised without a sequence gap.  Raises what [Link.send] raises;
    the frame's messages are then gone, and so is a control message
    whose write sent the frame before it. *)

val link_us : writer -> float
(** Time spent inside [Link.send] so far, the synchronous receiver
    included; the refresh ledger charges the rest of the stream's
    transmit time to encoding. *)

type frame = { epoch : int; seq : int; marker : bool  (** one {!Snaptime} *) }

type reader
(** A cursor over one received frame, re-pointed per frame. *)

val reader : unit -> reader

val open_frame : reader -> bytes -> int -> frame option
(** Check the header and checksum of the frame in the first [len] bytes
    of [b], and point the reader at its first message, read in place:
    [b] must not change until the last {!next}.  [None] if the bytes do
    not start with the frame tag; raises {!Corrupt} on a checksum
    mismatch or a truncated frame. *)

val frame_epoch : bytes -> int -> int
(** The epoch field of the frame header in the first [len] bytes, read
    without any check, for naming the epoch a {!Corrupt} frame belonged
    to; [-1] if the bytes are no frame or too short. *)

val next : reader -> t option
(** The frame's next message, or [None] past its last.  Raises
    {!Corrupt} on an undecodable message or trailing bytes. *)

val encode_framed : epoch:int -> seq:int -> t list -> bytes
(** The frame a {!writer} sends carrying these messages, in a buffer of
    its exact length. *)

val decode_framed : bytes -> frame * t list
(** {!open_frame}, then every {!next}. *)
