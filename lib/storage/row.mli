(** A row as the refresh stream carries it: the exact bytes
    {!Codec.write_tuple} writes for its values (a u16 field count, then
    each value's tag byte and payload).

    The scans copy a sent row's projected fields out of the walked base
    record ({!of_prefix}, {!of_fields}) instead of decoding them and
    encoding them again: a field's bytes on the base page are the bytes
    {!Codec.write_tuple} writes for its value.  Every constructor yields a
    row that decodes: {!of_tuple} encodes, the copies take fields a walk
    validated, and {!read} checks what it reads. *)

type t

val of_tuple : Tuple.t -> t

val to_tuple : t -> Tuple.t
(** The row's values: [to_tuple (of_tuple t)] equals [t]. *)

val field : t -> int -> Value.t
(** [field r i] is [(to_tuple r).(i)], decoding field [i] only: the
    fields before it are stepped over.  Raises [Invalid_argument] for [i]
    outside [0, arity r). *)

val equal : t -> t -> bool
(** Byte equality. *)

val length : t -> int
(** Encoded size in bytes: [Codec.tuple_size (to_tuple r)]. *)

val arity : t -> int

val write : bytes -> int -> t -> int
(** [write b off r] copies [r]'s bytes to [off] and returns the offset
    just past them. *)

val read : Codec.Cursor.t -> t
(** The row at the cursor ({!Codec.Cursor.tuple_string}): raises
    [Failure] where {!Codec.Cursor.tuple} would. *)

val pp : Format.formatter -> t -> unit

val of_prefix : Codec.Fields.t -> int -> t
(** [of_prefix f n]: the row of the walked record's first [n] fields,
    one copy of their contiguous bytes. *)

val of_fields : Codec.Fields.t -> int array -> t
(** [of_fields f cols]: the row of fields [cols.(0)], [cols.(1)], ... of
    the walked record, each field's bytes copied. *)

val validate : Schema.t -> t -> (unit, string) result
(** {!Schema.validate_tuple} of [to_tuple r], with the same verdict and
    message, checked on the tag bytes ({!Codec.conforms}) without
    decoding the row. *)
