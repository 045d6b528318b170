type t = string

let of_tuple t = Bytes.unsafe_to_string (Codec.tuple_bytes t)

let equal = String.equal

let length = String.length

let arity r = String.get_uint16_le r 0

(* Every row was written by [Codec.write_tuple], copied from a walked
   record or stepped over by [read], so it is exactly one tuple. *)
let to_tuple r = Codec.tuple_of_bytes (Bytes.unsafe_of_string r)

let field r i = Codec.field (Bytes.unsafe_of_string r) i

let write b off r =
  let len = String.length r in
  Bytes.blit_string r 0 b off len;
  off + len

let read = Codec.Cursor.tuple_string

let pp ppf r = Tuple.pp ppf (to_tuple r)

let of_prefix f n = Bytes.unsafe_to_string (Codec.Fields.prefix f n)

let of_fields f cols = Bytes.unsafe_to_string (Codec.Fields.pick f cols)

(* A failing row is decoded only to word the message as
   [Schema.validate_tuple] does. *)
let validate schema r =
  if Codec.conforms schema (Bytes.unsafe_of_string r) then Ok ()
  else Schema.validate_tuple schema (to_tuple r)
