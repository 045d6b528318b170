(** Little-endian binary encoding helpers shared by the WAL record format
    and the network message format. *)

val add_u8 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit
val add_i64 : Buffer.t -> int64 -> unit

val add_int : Buffer.t -> int -> unit
(** OCaml int as i64. *)

val add_string : Buffer.t -> string -> unit
(** u32 length + bytes. *)

val add_tuple : Buffer.t -> Tuple.t -> unit

(** In-place writers: the same bytes as the [add_] appenders, written at
    an offset of a buffer the caller sized; each returns the offset just
    past what it wrote (raising [Invalid_argument] if it does not fit). *)

val string_size : string -> int
(** Encoded size of a string: its u32 length + bytes. *)

val write_u8 : bytes -> int -> int -> int
val write_u32 : bytes -> int -> int -> int

val write_int : bytes -> int -> int -> int
(** OCaml int as i64. *)

val write_string : bytes -> int -> string -> int
val write_tuple : bytes -> int -> Tuple.t -> int

(** Readers take [bytes] and an offset and return the value with the offset
    just past it; they raise [Failure _] on truncation.  {!int} (and
    {!Cursor.int}) also raise [Failure _] on an i64 outside OCaml's int
    range, which no writer produces. *)

val u8 : bytes -> int -> int * int
val u32 : bytes -> int -> int * int
val i64 : bytes -> int -> int64 * int
val int : bytes -> int -> int * int
val string : bytes -> int -> string * int
val tuple : bytes -> int -> Tuple.t * int

val int_of_i64 : int64 -> int
(** The range check of {!int}: [Failure "Codec: int out of range"] for an
    i64 outside OCaml's int range. *)

val field_end : bytes -> int -> limit:int -> int
(** [field_end b q ~limit]: the offset just past the tag-byte value whose
    tag is at [b.[q]], with no byte of it at or past [limit].  It decodes
    nothing and raises [Failure] where {!Cursor.value} would: a bad tag
    or truncation. *)

(** In-place cursor readers: the zero-copy counterpart of the offset-pair
    readers above.  A cursor holds a [(buffer, position, limit)] window
    and each read advances the position, so the decode hot loop allocates
    nothing per field beyond the decoded values themselves (no
    [(value, offset)] pairs, no per-record [Bytes.sub]).  Create one
    cursor per decoding context and re-point it with {!Cursor.set} for
    each record. *)
module Cursor : sig
  type t

  val create : unit -> t
  (** A cursor over the empty window; point it somewhere with {!set}. *)

  val set : t -> bytes -> pos:int -> len:int -> unit
  (** Re-point the cursor at the window [\[pos, pos+len)] of [b].  Raises
      [Invalid_argument] if the window falls outside [b].  Reads past the
      window raise [Failure "Codec: truncated"] — the window edge is the
      truncation boundary, exactly like the buffer edge for the
      offset-pair readers. *)

  val pos : t -> int
  (** Current absolute position in the underlying buffer. *)

  val at_end : t -> bool
  (** Whether the window is fully consumed — the cursor analogue of
      [Tuple.decode_exactly]'s trailing-bytes check. *)

  val skip : t -> int -> unit

  val within : t -> int -> (t -> 'a) -> 'a
  (** [within c len f] runs [f c] with the window narrowed to the next
      [len] bytes, then restores the window's end.  Raises
      [Failure "Codec: truncated"] if fewer than [len] bytes remain.  Use
      it to read a length-prefixed member in place: [f] sees the member's
      end as the window edge (and can check {!at_end}). *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int : t -> int
  val string : t -> string

  val value : t -> Value.t
  (** One {!Value.t} in the tag-byte codec ({!Value.decode}). *)

  val tuple : t -> Tuple.t
  (** One self-delimiting tuple ({!Tuple.decode}). *)

  val walk : t -> int array -> at:int -> int
  (** [walk c offs ~at] steps over one tuple without decoding it: it reads
      the field count [n], stores the absolute position of field [i]'s tag
      byte in [offs.(at + i)], skips each payload (a string by its length
      prefix), and returns [n].  The window must end exactly where the
      tuple does.  It raises [Failure] exactly where
      [Tuple.decode_exactly] on the window's bytes would: a bad tag,
      truncation, or trailing bytes.  [offs] needs [at + len] slots for a
      window of [len] bytes. *)

  val tuple_string : t -> string
  (** The next tuple's exact bytes, stepped over with {!walk}'s checks
      (without its trailing-bytes check): it raises [Failure] where
      {!tuple} would, and otherwise decodes nothing. *)
end

(** A walked record: the field offsets {!Cursor.walk} recorded, over the
    buffer it walked.  Reading a field decodes that field only.  One
    value is re-pointed from record to record by the scan that owns it
    (it sets [base] and [count]); {!of_record} walks a standalone
    record. *)
module Fields : sig
  type t = {
    mutable buf : bytes;
    mutable offs : int array;
    mutable base : int;  (** field [i]'s tag byte is at [offs.(base + i)] *)
    mutable count : int;  (** the record's field count *)
  }

  val create : unit -> t
  (** A view of no record (count 0). *)

  val of_record : bytes -> t
  (** Walk a whole encoded tuple; raises [Failure] where
      [Tuple.decode_exactly] would. *)

  val count : t -> int

  val tag : t -> int -> char
  (** Field [i]'s tag byte ({!Value.tag_null} ...).  Every reader raises
      [Invalid_argument] for [i] outside [0, count). *)

  val off : t -> int -> int
  (** Field [i]'s offset in [buf]: where its tag byte is. *)

  val stop : t -> int -> int
  (** The offset just past field [i]: the field's bytes are
      [buf.[off f i, stop f i)]. *)

  val value : t -> int -> Value.t
  (** Field [i], decoded: equal to [(Tuple.decode_exactly record).(i)]. *)

  val tuple : t -> n:int -> Tuple.t
  (** The first [n] fields, decoded. *)
end

val fnv1a : bytes -> pos:int -> len:int -> int
(** The 32-bit FNV-1a hash of [b.[pos, pos+len)], for the WAL's and the
    refresh frames' checksums.  Raises [Invalid_argument] for a range
    outside [b]. *)
