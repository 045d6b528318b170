(** Tuples: flat arrays of {!Value.t}, positionally matching a {!Schema.t}.

    Tuples are immutable from the storage layer's point of view: updates
    produce a fresh array.  The codec is self-delimiting (a field count
    followed by each value) so tuples can be embedded in pages, log records
    and network messages without an external length. *)

type t = Value.t array

val make : Value.t list -> t

val get : t -> int -> Value.t

val get_by_name : Schema.t -> t -> string -> Value.t
(** Raises [Not_found] on an unknown column. *)

val set : t -> int -> Value.t -> t
(** Functional update. *)

val project : Schema.t -> t -> string list -> t
(** Values of the named columns, in order. *)

val project_idx : t -> int array -> t

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic by {!Value.compare}. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val encoded_size : t -> int

val write : bytes -> int -> t -> int
(** [write b off t] writes [t]'s encoding (exactly {!encoded_size}[ t]
    bytes) at [off] and returns the offset just past it.  The caller
    sizes [b].  The one tuple writer: the functions below use it. *)

val encode : Buffer.t -> t -> unit
(** Append {!encode_to_bytes}[ t]. *)

val decode : bytes -> int -> t * int

val encode_to_bytes : t -> bytes
(** {!write} into one exact-size buffer. *)

val decode_exactly : bytes -> t
(** Decode and require that the whole buffer is consumed. *)
