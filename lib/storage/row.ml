type t = string

let of_tuple t = Bytes.unsafe_to_string (Tuple.encode_to_bytes t)

let equal = String.equal

let length = String.length

let arity r = String.get_uint16_le r 0

(* Every row was written by [Tuple.write], copied from a walked record or
   stepped over by [read], so its fields decode without checks: one
   dispatch on each tag reads the value and steps past it. *)
let to_tuple r =
  let n = arity r in
  let t = Array.make n Value.Null in
  let p = ref 2 in
  for i = 0 to n - 1 do
    let q = !p in
    match String.get r q with
    | '\000' -> p := q + 1
    | '\001' ->
      t.(i) <- Value.Int (String.get_int64_le r (q + 1));
      p := q + 9
    | '\002' ->
      t.(i) <- Value.Float (Int64.float_of_bits (String.get_int64_le r (q + 1)));
      p := q + 9
    | '\003' ->
      let len = Int32.to_int (String.get_int32_le r (q + 1)) land 0xffff_ffff in
      t.(i) <- Value.Str (String.sub r (q + 5) len);
      p := q + 5 + len
    | _ ->
      t.(i) <- Value.Bool (String.get r (q + 1) <> '\000');
      p := q + 2
  done;
  t

let write b off r =
  let len = String.length r in
  Bytes.blit_string r 0 b off len;
  off + len

let read = Codec.Cursor.tuple_string

let pp ppf r = Tuple.pp ppf (to_tuple r)

module F = Codec.Fields

(* A field's bytes in a walked record are the bytes [Tuple.write] writes
   for its value, so a u16 count followed by the fields' byte ranges is
   the row [of_tuple] would write for their values. *)
let of_prefix f n =
  if n = 0 then "\000\000"
  else begin
    let o = F.off f 0 in
    let len = F.stop f (n - 1) - o in
    let b = Bytes.create (2 + len) in
    Bytes.set_uint16_le b 0 n;
    Bytes.blit f.F.buf o b 2 len;
    Bytes.unsafe_to_string b
  end

let of_fields f cols =
  let len = ref 2 in
  for j = 0 to Array.length cols - 1 do
    len := !len + F.stop f cols.(j) - F.off f cols.(j)
  done;
  let b = Bytes.create !len in
  Bytes.set_uint16_le b 0 (Array.length cols);
  let p = ref 2 in
  for j = 0 to Array.length cols - 1 do
    let o = F.off f cols.(j) in
    let l = F.stop f cols.(j) - o in
    Bytes.blit f.F.buf o b !p l;
    p := !p + l
  done;
  Bytes.unsafe_to_string b

(* [Schema.validate_tuple]'s checks, on the tag bytes: each field's tag
   must be its column's type, or NULL where the column is nullable, and
   gives the field's width.  A failing row is decoded only to word the
   message as that check does. *)
let validate schema r =
  let n = arity r in
  let rec fits i q =
    i = n
    ||
    let c = Schema.column schema i in
    match String.get r q with
    | '\000' -> c.nullable && fits (i + 1) (q + 1)
    | '\001' -> c.ty = Value.Tint && fits (i + 1) (q + 9)
    | '\002' -> c.ty = Value.Tfloat && fits (i + 1) (q + 9)
    | '\003' ->
      c.ty = Value.Tstring
      && fits (i + 1) (q + 5 + (Int32.to_int (String.get_int32_le r (q + 1)) land 0xffff_ffff))
    | '\004' -> c.ty = Value.Tbool && fits (i + 1) (q + 2)
    | _ -> false
  in
  if n = Schema.arity schema && fits 0 2 then Ok () else Schema.validate_tuple schema (to_tuple r)
