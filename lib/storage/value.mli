(** Typed field values.

    A value is the contents of one column of one tuple.  SQL-style
    three-valued NULL semantics live in {!Snapdiff_expr}; here NULL is just a
    distinguished constant that every column type admits when its schema
    marks it nullable.  The binary codec is used by the slotted page layout,
    the write-ahead log, and the network message format. *)

type ty = Tint | Tfloat | Tstring | Tbool

type t =
  | Null
  | Int of int64
  | Float of float
  | Str of string
  | Bool of bool

val type_of : t -> ty option
(** [None] for [Null]. *)

val ty_name : ty -> string

val has_type : t -> ty -> bool
(** [Null] has every type. *)

val is_null : t -> bool

val compare : t -> t -> int
(** Total order used by indexes and sorting: [Null] sorts first; values of
    different types order by type tag (indexes never mix types in practice
    because schemas are typed). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(* Convenience constructors. *)
val int : int -> t
val str : string -> t

(** {1 Binary codec}

    Format: 1 tag byte, then a type-dependent payload.  Strings are a
    little-endian [u32] length followed by the bytes. *)

(* Codec tag bytes, exposed so in-place cursor readers ({!Codec.Cursor})
   can decode values without round-tripping through {!decode}'s
   offset-pair allocation. *)
val tag_null : char
val tag_int : char
val tag_float : char
val tag_str : char
val tag_bool : char

val encoded_size : t -> int

val write : bytes -> int -> t -> int
(** [write b off v] writes [v]'s encoding (exactly {!encoded_size}[ v]
    bytes) at [off] and returns the offset just past it.  The caller
    sizes [b]; raises [Invalid_argument] if the encoding does not fit. *)

val decode : bytes -> int -> t * int
(** [decode b off] returns the value and the offset just past it.
    Raises [Failure] on a corrupt tag or truncated payload. *)
