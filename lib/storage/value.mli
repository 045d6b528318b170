(** Typed field values.

    A value is the contents of one column of one tuple.  SQL-style
    three-valued NULL semantics live in {!Snapdiff_expr}; here NULL is just a
    distinguished constant that every column type admits when its schema
    marks it nullable.  A value's bytes are laid out by {!Codec}. *)

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
