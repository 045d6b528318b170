(** The base-table annotation fields.

    "The differential refresh algorithm also requires extra fields in the
    base table.  In the R* implementation, the extra fields are added
    automatically to the base table when the first snapshot using
    differential refresh is created.  The extra fields are given "funny"
    names to distinguish them from user defined fields..."

    We follow R*: the annotations are two hidden nullable columns appended
    to the user schema —

    - [__prevaddr] : the address of the preceding base table entry (every
      address strictly between an entry's [__prevaddr] and its own address
      is known-empty); NULL means "inserted since the last fix-up";
    - [__timestamp] : the local time of the entry's last modification;
      NULL means "updated since the last fix-up".

    This module owns the column names, the (de)construction of annotated
    tuples, and the stored layout of the two fields: NULL is an in-band
    integer sentinel, so both fields always encode as [tag_int] plus an
    8-byte integer and together form the record's last {!tail_bytes}
    bytes.  A fix-up write patches exactly that tail
    ({!Base_table.set_annotations}). *)

open Snapdiff_storage

val prevaddr_col : string
(** ["__prevaddr"]. *)

val timestamp_col : string
(** ["__timestamp"]. *)

val extend_schema : Schema.t -> Schema.t
(** Append the two annotation columns.  Raises [Invalid_argument] if the
    user schema already contains them. *)

val strip_schema : Schema.t -> Schema.t
(** Inverse of {!extend_schema}.  Raises [Invalid_argument] if the schema
    does not end with the two annotation columns. *)

val is_annotated : Schema.t -> bool

type t = {
  prev_addr : Addr.t option;  (** [None] = NULL *)
  timestamp : Snapdiff_txn.Clock.ts option;  (** [None] = NULL *)
}

val nulls : t

val annotate : Tuple.t -> t -> Tuple.t
(** [annotate user_tuple ann] appends the two annotation values. *)

val split : Tuple.t -> Tuple.t * t
(** Inverse of {!annotate}: separates the user fields from the annotations
    of a stored tuple.  Raises [Invalid_argument] on a tuple shorter than 2
    fields or with ill-typed annotation values. *)

val user_part : Tuple.t -> Tuple.t
(** Just the user fields of a stored tuple. *)

val with_annotations : Tuple.t -> t -> Tuple.t
(** Replace the annotation fields of a stored (already annotated) tuple. *)

(** {1 Raw fields}

    The scan's allocation-free view: each field as a plain [int], NULL
    being {!null}. *)

val null : int
(** The raw NULL ([min_int]; addresses and timestamps are non-negative). *)

val raw_prev : Tuple.t -> int
(** The stored tuple's [__prevaddr] as a raw int.  Accepts an SQL
    [Value.Null] as NULL (rows written outside this module); raises
    [Invalid_argument] on a non-integer value or a tuple shorter than 2,
    and [Failure] on an integer outside OCaml's int range (no writer
    stores one: it is a damaged field, e.g. a flipped bit 63). *)

val raw_ts : Tuple.t -> int
(** Same for [__timestamp]. *)

(** {2 Over a walked record}

    The scans read the two fields in place, from the field offsets a
    walk recorded ({!Snapdiff_storage.Codec.Fields}): fields [n-2] and
    [n-1] of an [n]-field record.  They are located by the walk, not at a
    fixed distance from the record's end, because a SQL NULL field is one
    byte long.  Same results and failures as {!raw_prev}/{!raw_ts} on
    the decoded tuple. *)

val record_prev : Codec.Fields.t -> int
val record_ts : Codec.Fields.t -> int

val record_patchable : Codec.Fields.t -> bool
(** {!patchable} for a walked record: both annotation fields carry
    [tag_int]. *)

val user_pred : (Tuple.t -> bool) -> Codec.Fields.t -> bool
(** [user_pred p] adapts a tuple predicate to a walked stored record: it
    decodes the user part (every field but the last two) and calls [p]
    on it.  For callers holding a closure rather than a compiled
    {!Snapdiff_expr.Eval.record_pred}. *)

val with_raw : Tuple.t -> prev:int -> ts:int -> Tuple.t
(** {!with_annotations} from raw fields. *)

(** {1 The fixed-width tail} *)

val tail_bytes : int
(** [18]: two fields of [tag_int] plus an 8-byte little-endian integer. *)

val patchable : Tuple.t -> bool
(** Whether both annotation values of a stored tuple are [Value.Int], so
    that its encoded record ends in the fixed-width tail and a patch of
    its last {!tail_bytes} bytes equals a whole-row rewrite.  False for a
    row carrying SQL [Value.Null] annotations, which must be rewritten
    whole (the fields grow from 1 to 9 bytes). *)

val encode_tail : prev:int -> ts:int -> bytes
(** The {!tail_bytes}-byte encoding of the two raw fields: exactly the
    last bytes of [Codec.tuple_bytes (with_raw stored ~prev ~ts)]. *)

val write_tail : bytes -> prev:int -> ts:int -> unit
(** {!encode_tail} into the first {!tail_bytes} bytes of a buffer the
    caller reuses. *)

val pp : Format.formatter -> t -> unit
