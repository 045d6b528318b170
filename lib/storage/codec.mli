(** The byte layout of every format the engine stores or sends: heap
    records, write-ahead log records and refresh frames.  Each format has
    one writer and one reader.  The writer is an exact size (the format's
    [size] function, built from {!string_size} and {!tuple_size}) and the
    in-place [write_*] functions below over a buffer of that size.  The
    reader is a {!Cursor} over the bytes where they lie.

    A value is one tag byte then a type-dependent payload: nothing for
    NULL, an i64 for INT, the i64 bits of a FLOAT, a u32 length then the
    bytes for STRING, one byte (0 or 1) for BOOL.  A tuple is a u16 field
    count then its values, so it is self-delimiting.  Every integer is
    little-endian. *)

(** {1 Value tags}

    Exposed for the per-record code outside this module that reads or
    patches an INT field in place, allocating nothing: compiled
    predicates and the annotation fields. *)

val tag_null : char
val tag_int : char
val tag_float : char
val tag_str : char
val tag_bool : char

(** {1 Writers}

    Each writes at an offset of a buffer the caller sized and returns the
    offset just past what it wrote (raising [Invalid_argument] if it does
    not fit). *)

val string_size : string -> int
(** Encoded size of a string: its u32 length + bytes. *)

val tuple_size : Value.t array -> int
(** Encoded size of a tuple: what {!write_tuple} writes. *)

val write_u8 : bytes -> int -> int -> int
val write_u32 : bytes -> int -> int -> int

val write_int : bytes -> int -> int -> int
(** OCaml int as i64. *)

val write_string : bytes -> int -> string -> int

val write_tuple : bytes -> int -> Value.t array -> int
(** Raises [Invalid_argument] on more than 65535 fields. *)

val tuple_bytes : Value.t array -> bytes
(** {!write_tuple} into one buffer of exactly {!tuple_size} bytes: a heap
    record. *)

(** {1 The reader} *)

val int_of_i64 : int64 -> int
(** [Failure "Codec: int out of range"] for an i64 outside OCaml's int
    range, which no writer produces; {!Cursor.int} applies it. *)

(** In-place readers.  A cursor holds a [(buffer, position, limit)]
    window and each read advances the position, so a decode allocates
    nothing per field beyond the decoded values themselves.  Create one
    cursor per decoding context and re-point it with {!Cursor.set} for
    each record.  Every read raises [Failure] on truncation (the window
    edge), a bad tag, or an out-of-range int, and nothing else. *)
module Cursor : sig
  type t

  val create : unit -> t
  (** A cursor over the empty window; point it somewhere with {!set}. *)

  val set : t -> bytes -> pos:int -> len:int -> unit
  (** Re-point the cursor at the window [\[pos, pos+len)] of [b].  Raises
      [Invalid_argument] if the window falls outside [b].  Reads past the
      window raise [Failure "Codec: truncated"]: the window edge is the
      truncation boundary even where the buffer goes on. *)

  val over : bytes -> t
  (** A fresh cursor over the whole of [b]. *)

  val pos : t -> int
  (** Current absolute position in the underlying buffer. *)

  val at_end : t -> bool
  (** Whether the window is fully consumed. *)

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
  (** One tag-byte value. *)

  val tuple : t -> Value.t array
  (** One self-delimiting tuple. *)

  val walk : t -> int array -> at:int -> int
  (** [walk c offs ~at] steps over one tuple without decoding it: it reads
      the field count [n], stores the absolute position of field [i]'s tag
      byte in [offs.(at + i)], skips each payload (a string by its length
      prefix), and returns [n].  The window must end exactly where the
      tuple does.  It raises [Failure] exactly where {!tuple_of_bytes} on
      the window's bytes would: a bad tag, truncation, or trailing bytes.
      [offs] needs [at + len] slots for a window of [len] bytes. *)

  val tuple_string : t -> string
  (** The next tuple's exact bytes, stepped over with {!walk}'s checks
      (without its trailing-bytes check): it raises [Failure] where
      {!tuple} would, and otherwise decodes nothing. *)
end

val tuple_of_bytes : bytes -> Value.t array
(** The tuple that fills [b] exactly, read with {!Cursor.tuple}; raises
    [Failure] on a bad tag, truncation or trailing bytes. *)

val conforms : Schema.t -> bytes -> bool
(** [conforms schema b]: whether the tuple that fills [b] (one
    {!write_tuple} wrote) has the schema's arity and each field's tag is
    its column's type, or NULL where the column is nullable: the verdict
    of [Schema.validate_tuple schema (tuple_of_bytes b)], read from the
    tag bytes without decoding a value. *)

val field : bytes -> int -> Value.t
(** [field b i]: field [i] of the tuple that fills [b], equal to
    [(tuple_of_bytes b).(i)].  It steps over the fields before [i]
    without decoding them and decodes field [i] only.  Raises
    [Invalid_argument] for [i] outside the tuple's fields and [Failure]
    where {!tuple_of_bytes} would on the bytes it reads. *)

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
      {!tuple_of_bytes} would. *)

  val count : t -> int

  val tag : t -> int -> char
  (** Field [i]'s tag byte ({!tag_null} ...).  Every reader raises
      [Invalid_argument] for [i] outside [0, count). *)

  val off : t -> int -> int
  (** Field [i]'s offset in [buf]: where its tag byte is. *)

  val stop : t -> int -> int
  (** The offset just past field [i]: the field's bytes are
      [buf.[off f i, stop f i)]. *)

  val value : t -> int -> Value.t
  (** Field [i], decoded: equal to [(tuple_of_bytes record).(i)]. *)

  val prefix : t -> int -> bytes
  (** [prefix f n]: the tuple of the record's first [n] fields, as
      {!write_tuple} would write their values; one copy of their
      contiguous bytes. *)

  val pick : t -> int array -> bytes
  (** [pick f cols]: the tuple of fields [cols.(0)], [cols.(1)], ..., as
      {!write_tuple} would write their values; each field's bytes
      copied. *)

  val tuple : t -> n:int -> Value.t array
  (** The first [n] fields, decoded in one read (they lie back to back).
      Raises [Invalid_argument] for [n] outside [0, count]. *)
end

val checksum : bytes -> pos:int -> len:int -> int
(** The 32-bit checksum of [b.[pos, pos+len)], for the WAL's records and
    the refresh frames.  Four independent 32-bit lanes consume the range
    in 16-byte blocks, one aligned word each per block, with the step
    [h := mix32 (h lxor word)]: [mix32] multiplies by an odd constant mod
    2^32, then xorshifts, so the step is a bijection in [h] and injective
    in the word.  The lanes are folded in sequence into a sum seeded with
    [len], and the 0-15 tail bytes follow as little-endian words, the
    last zero-padded.  A change confined to one 32-bit word aligned to
    [pos] — in particular any change to one byte — always changes the
    sum.  Raises [Invalid_argument] for a range outside [b]. *)

val checksum_word : int -> int -> int
(** [checksum_word h w]: one step of {!checksum}, folding the low 32
    bits of [w] into the 32-bit sum [h]; injective in those bits, so a
    frame header's fields can be folded in with the same guarantee. *)
