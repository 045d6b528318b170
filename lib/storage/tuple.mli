(** Tuples: flat arrays of {!Value.t}, positionally matching a {!Schema.t}.

    Tuples are immutable from the storage layer's point of view: updates
    produce a fresh array.  A tuple's bytes are laid out by {!Codec}: a
    field count followed by each value, self-delimiting, so tuples embed
    in pages, log records and network messages without an external
    length. *)

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
(** Encoded size in bytes: {!Codec.tuple_size}. *)
