let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let add_i64 = Buffer.add_int64_le

let add_int buf i = add_i64 buf (Int64.of_int i)

let add_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_tuple = Tuple.encode

(* In-place writers into a buffer the caller sized exactly (fixed widths,
   [string_size], [Tuple.encoded_size]); each returns the offset just past
   what it wrote. *)

let string_size s = 4 + String.length s

let write_u8 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  off + 1

let write_u32 b off v =
  Bytes.set_int32_le b off (Int32.of_int v);
  off + 4

let write_int b off i =
  Bytes.set_int64_le b off (Int64.of_int i);
  off + 8

let write_string b off s =
  let len = String.length s in
  let off = write_u32 b off len in
  Bytes.blit_string s 0 b off len;
  off + len

let write_tuple = Tuple.write

let need b off n = if off + n > Bytes.length b then failwith "Codec: truncated"

let u8 b off =
  need b off 1;
  (Char.code (Bytes.get b off), off + 1)

let u32 b off =
  need b off 4;
  (Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff, off + 4)

let i64 b off =
  need b off 8;
  (Bytes.get_int64_le b off, off + 8)

(* An OCaml int is 63 bits: an i64 outside that range was not written by
   [add_int]/[write_int], and [Int64.to_int] would silently drop its top
   bit (so a flipped bit 63 would decode to the original value). *)
let int_of_i64 v =
  let i = Int64.to_int v in
  if Int64.of_int i <> v then failwith "Codec: int out of range";
  i

let int b off =
  let v, off = i64 b off in
  (int_of_i64 v, off)

let string b off =
  let len, off = u32 b off in
  need b off len;
  (Bytes.sub_string b off len, off + len)

let tuple = Tuple.decode

(* A tag-byte value's checks without building the value: the position
   just past the field whose tag byte is at [q], failing as its decode
   would.  Inlined: the walk steps over every field of every record a
   scan reads. *)
let[@inline] field_end b q ~limit =
  if q >= limit then failwith "Codec: truncated";
  let p =
    match Bytes.unsafe_get b q with
    | '\000' -> q + 1
    | '\001' | '\002' -> q + 9
    | '\004' -> q + 2
    | '\003' ->
      if q + 5 > limit then failwith "Codec: truncated";
      q + 5 + (Int32.to_int (Bytes.get_int32_le b (q + 1)) land 0xffff_ffff)
    | _ -> failwith "Value.decode: bad tag"
  in
  if p > limit then failwith "Codec: truncated";
  p

(* The value whose tag byte is at [b.[o]], on bytes [field_end] already
   stepped over: no check beyond the bounds checks of the reads. *)
let[@inline] value_at b o =
  let tag = Bytes.get b o in
  if tag = Value.tag_null then Value.Null
  else if tag = Value.tag_int then Value.Int (Bytes.get_int64_le b (o + 1))
  else if tag = Value.tag_float then
    Value.Float (Int64.float_of_bits (Bytes.get_int64_le b (o + 1)))
  else if tag = Value.tag_str then begin
    let len = Int32.to_int (Bytes.get_int32_le b (o + 1)) land 0xffff_ffff in
    Value.Str (Bytes.sub_string b (o + 5) len)
  end
  else Value.Bool (Bytes.get b (o + 1) <> '\000')

(* In-place readers over a byte window.  The offset-pair readers above
   allocate a (value, offset) tuple per field and force callers to
   Bytes.sub each record out of its page first; a cursor reads straight
   from the shared page (or arena) image and advances a mutable position,
   so the decode hot loop allocates only the values themselves.  A cursor
   is meant to be created once and re-pointed with [set] per record. *)
module Cursor = struct
  type t = { mutable buf : bytes; mutable pos : int; mutable limit : int }

  let create () = { buf = Bytes.empty; pos = 0; limit = 0 }

  let set c b ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Codec.Cursor.set: window out of bounds";
    c.buf <- b;
    c.pos <- pos;
    c.limit <- pos + len

  let pos c = c.pos

  let at_end c = c.pos >= c.limit

  let need c n = if c.pos + n > c.limit then failwith "Codec: truncated"

  let skip c n =
    if n < 0 then invalid_arg "Codec.Cursor.skip: negative";
    need c n;
    c.pos <- c.pos + n

  let within c len f =
    if len < 0 then invalid_arg "Codec.Cursor.within: negative";
    need c len;
    let limit = c.limit in
    c.limit <- c.pos + len;
    let v = f c in
    c.limit <- limit;
    v

  let u8 c =
    need c 1;
    let v = Char.code (Bytes.get c.buf c.pos) in
    c.pos <- c.pos + 1;
    v

  let u16 c =
    need c 2;
    let v = Bytes.get_uint16_le c.buf c.pos in
    c.pos <- c.pos + 2;
    v

  let u32 c =
    need c 4;
    let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) land 0xffff_ffff in
    c.pos <- c.pos + 4;
    v

  let i64 c =
    need c 8;
    let v = Bytes.get_int64_le c.buf c.pos in
    c.pos <- c.pos + 8;
    v

  let int c = int_of_i64 (i64 c)

  let string c =
    let len = u32 c in
    need c len;
    let s = Bytes.sub_string c.buf c.pos len in
    c.pos <- c.pos + len;
    s

  let value c =
    let q = c.pos in
    c.pos <- field_end c.buf q ~limit:c.limit;
    value_at c.buf q

  let tuple c =
    let n = u16 c in
    if n = 0 then [||]
    else begin
      let t = Array.make n Value.Null in
      (* Explicit loop: the decode is stateful, so evaluation order must
         be the field order. *)
      for i = 0 to n - 1 do
        t.(i) <- value c
      done;
      t
    end

  (* Over the whole tuple in one loop: the same failures in the same
     order as a decode. *)
  let walk c offs ~at =
    let b = c.buf and limit = c.limit in
    let n = u16 c in
    let p = ref c.pos in
    for i = 0 to n - 1 do
      offs.(at + i) <- !p;
      p := field_end b !p ~limit
    done;
    c.pos <- !p;
    if not (at_end c) then failwith "Tuple.decode_exactly: trailing bytes";
    n

  let tuple_string c =
    let start = c.pos in
    let n = u16 c in
    let p = ref c.pos in
    for _ = 1 to n do
      p := field_end c.buf !p ~limit:c.limit
    done;
    c.pos <- !p;
    Bytes.sub_string c.buf start (!p - start)
end

(* A walked record: field [i]'s tag byte sits at [buf.[offs.(base + i)]].
   The walk validated every field, so the readers below index the buffer
   directly. *)
module Fields = struct
  type t = {
    mutable buf : bytes;
    mutable offs : int array;
    mutable base : int;
    mutable count : int;
  }

  let create () = { buf = Bytes.empty; offs = [||]; base = 0; count = 0 }

  let of_record b =
    let c = Cursor.create () in
    Cursor.set c b ~pos:0 ~len:(Bytes.length b);
    let offs = Array.make (Bytes.length b) 0 in
    let count = Cursor.walk c offs ~at:0 in
    { buf = b; offs; base = 0; count }

  let count f = f.count

  let off f i =
    if i < 0 || i >= f.count then invalid_arg "Codec.Fields: no such field";
    f.offs.(f.base + i)

  let tag f i = Bytes.get f.buf (off f i)

  let stop f i = field_end f.buf (off f i) ~limit:(Bytes.length f.buf)

  let value f i = value_at f.buf (off f i)

  let tuple f ~n = Array.init n (value f)
end

(* FNV-1a, 32-bit.  The low 32 bits of [(h lxor byte) * prime] depend
   only on the low 32 bits of [h], so the product is masked once, after
   the loop, with the same result as masking every step.  The loop runs
   on an unboxed [int64], which spares each step the tagged-int
   arithmetic's extra instructions on its dependency chain. *)
let fnv1a b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.fnv1a";
  let h = ref 0x811C9DC5L in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) 0x01000193L
  done;
  Int64.to_int !h land 0xFFFFFFFF
