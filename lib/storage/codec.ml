(* The one byte layout.  A value is a tag byte then its payload: nothing
   for NULL, an i64 for INT, the i64 bits of a FLOAT, a u32 length then
   the bytes for STRING, one byte for BOOL.  A tuple is a u16 field count
   then its values.  Every integer is little-endian. *)

let tag_null = '\000'
let tag_int = '\001'
let tag_float = '\002'
let tag_str = '\003'
let tag_bool = '\004'

(* ---- Writers: an exact size, then in place ------------------------ *)

let string_size s = 4 + String.length s

let value_size = function
  | Value.Null -> 1
  | Value.Int _ | Value.Float _ -> 9
  | Value.Bool _ -> 2
  | Value.Str s -> 1 + string_size s

let tuple_size t = Array.fold_left (fun acc v -> acc + value_size v) 2 t

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

let write_value b off = function
  | Value.Null ->
    Bytes.set b off tag_null;
    off + 1
  | Value.Int i ->
    Bytes.set b off tag_int;
    Bytes.set_int64_le b (off + 1) i;
    off + 9
  | Value.Float f ->
    Bytes.set b off tag_float;
    Bytes.set_int64_le b (off + 1) (Int64.bits_of_float f);
    off + 9
  | Value.Str s ->
    Bytes.set b off tag_str;
    write_string b (off + 1) s
  | Value.Bool x ->
    Bytes.set b off tag_bool;
    Bytes.set b (off + 1) (if x then '\001' else '\000');
    off + 2

let write_tuple b off t =
  let n = Array.length t in
  if n > 0xffff then invalid_arg "Codec.write_tuple: too many fields";
  Bytes.set_uint16_le b off n;
  let off = ref (off + 2) in
  for i = 0 to n - 1 do
    off := write_value b !off t.(i)
  done;
  !off

let tuple_bytes t =
  let b = Bytes.create (tuple_size t) in
  ignore (write_tuple b 0 t : int);
  b

(* ---- The reader ---------------------------------------------------- *)

(* An OCaml int is 63 bits: an i64 outside that range was not written by
   [write_int], and [Int64.to_int] would silently drop its top bit (so a
   flipped bit 63 would decode to the original value). *)
let int_of_i64 v =
  let i = Int64.to_int v in
  if Int64.of_int i <> v then failwith "Codec: int out of range";
  i

(* A value's checks without building it: the position just past the
   value whose tag byte is at [q], failing as its decode would.  Inlined:
   the walk steps over every field of every record a scan reads. *)
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
    | _ -> failwith "Codec: bad tag"
  in
  if p > limit then failwith "Codec: truncated";
  p

(* The values of [t] (all NULL on entry), in field order, from [b.[q]]
   on: one dispatch per value both checks it against [limit] and decodes
   it.  Returns the position just past the last.  The loop over a
   tuple's fields stays here, so a tuple read is one call across the
   module boundary. *)
let fill b q ~limit t =
  let p = ref q in
  for i = 0 to Array.length t - 1 do
    let q = !p in
    if q >= limit then failwith "Codec: truncated";
    match Bytes.unsafe_get b q with
    | '\000' -> p := q + 1
    | '\001' ->
      p := q + 9;
      if !p > limit then failwith "Codec: truncated";
      t.(i) <- Value.Int (Bytes.get_int64_le b (q + 1))
    | '\002' ->
      p := q + 9;
      if !p > limit then failwith "Codec: truncated";
      t.(i) <- Value.Float (Int64.float_of_bits (Bytes.get_int64_le b (q + 1)))
    | '\003' ->
      if q + 5 > limit then failwith "Codec: truncated";
      let len = Int32.to_int (Bytes.get_int32_le b (q + 1)) land 0xffff_ffff in
      p := q + 5 + len;
      if !p > limit then failwith "Codec: truncated";
      t.(i) <- Value.Str (Bytes.sub_string b (q + 5) len)
    | '\004' ->
      p := q + 2;
      if !p > limit then failwith "Codec: truncated";
      t.(i) <- Value.Bool (Bytes.get b (q + 1) <> '\000')
    | _ -> failwith "Codec: bad tag"
  done;
  !p

(* A cursor reads straight from the shared image (a page copy, a log, a
   received frame) and advances a mutable position, so a decode allocates
   only the values themselves.  It is meant to be created once and
   re-pointed with [set] per record. *)
module Cursor = struct
  type t = { mutable buf : bytes; mutable pos : int; mutable limit : int }

  let create () = { buf = Bytes.empty; pos = 0; limit = 0 }

  let set c b ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Codec.Cursor.set: window out of bounds";
    c.buf <- b;
    c.pos <- pos;
    c.limit <- pos + len

  let over b =
    let c = create () in
    set c b ~pos:0 ~len:(Bytes.length b);
    c

  let pos c = c.pos

  let at_end c = c.pos >= c.limit

  let need c n = if c.pos + n > c.limit then failwith "Codec: truncated"

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
    let t = [| Value.Null |] in
    c.pos <- fill c.buf c.pos ~limit:c.limit t;
    t.(0)

  let tuple c =
    let t = Array.make (u16 c) Value.Null in
    c.pos <- fill c.buf c.pos ~limit:c.limit t;
    t

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
    if not (at_end c) then failwith "Codec: trailing bytes";
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

(* [Cursor.tuple] over the whole of [b] and its end check, without a
   cursor: every heap read and every replayed row comes through here. *)
let tuple_of_bytes b =
  let limit = Bytes.length b in
  if limit < 2 then failwith "Codec: truncated";
  let t = Array.make (Bytes.get_uint16_le b 0) Value.Null in
  if fill b 2 ~limit t <> limit then failwith "Codec: trailing bytes";
  t

(* [Schema.validate_tuple]'s checks on the tag bytes: each field's tag
   must be its column's type, or NULL where the column is nullable, and
   gives the field's width.  The bytes are one tuple a writer wrote. *)
let conforms schema b =
  let n = Bytes.get_uint16_le b 0 in
  let rec fits i q =
    i = n
    ||
    let c = Schema.column schema i in
    match Bytes.get b q with
    | '\000' -> c.nullable && fits (i + 1) (q + 1)
    | '\001' -> c.ty = Value.Tint && fits (i + 1) (q + 9)
    | '\002' -> c.ty = Value.Tfloat && fits (i + 1) (q + 9)
    | '\003' ->
      c.ty = Value.Tstring
      && fits (i + 1) (q + 5 + (Int32.to_int (Bytes.get_int32_le b (q + 1)) land 0xffff_ffff))
    | '\004' -> c.ty = Value.Tbool && fits (i + 1) (q + 2)
    | _ -> false
  in
  n = Schema.arity schema && fits 0 2

(* Field [i] of the tuple that fills [b]: the fields before it stepped
   over as [Cursor.walk] steps, then the one decoded. *)
let field b i =
  let limit = Bytes.length b in
  if limit < 2 || i < 0 || i >= Bytes.get_uint16_le b 0 then invalid_arg "Codec.field: no such field";
  let q = ref 2 in
  for _ = 1 to i do
    q := field_end b !q ~limit
  done;
  let t = [| Value.Null |] in
  ignore (fill b !q ~limit t : int);
  t.(0)

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
    let c = Cursor.over b in
    let offs = Array.make (Bytes.length b) 0 in
    let count = Cursor.walk c offs ~at:0 in
    { buf = b; offs; base = 0; count }

  let count f = f.count

  let off f i =
    if i < 0 || i >= f.count then invalid_arg "Codec.Fields: no such field";
    f.offs.(f.base + i)

  let tag f i = Bytes.get f.buf (off f i)

  let stop f i = field_end f.buf (off f i) ~limit:(Bytes.length f.buf)

  let value f i =
    let t = [| Value.Null |] in
    ignore (fill f.buf (off f i) ~limit:(Bytes.length f.buf) t : int);
    t.(0)

  (* A field's bytes in a walked record are the bytes [write_value]
     writes for its value, so a u16 count followed by fields' byte ranges
     is the tuple [write_tuple] would write for their values. *)
  let prefix f n =
    let o = if n = 0 then 0 else off f 0 in
    let len = if n = 0 then 0 else stop f (n - 1) - o in
    let b = Bytes.create (2 + len) in
    Bytes.set_uint16_le b 0 n;
    Bytes.blit f.buf o b 2 len;
    b

  let pick f cols =
    let len = ref 2 in
    for j = 0 to Array.length cols - 1 do
      len := !len + stop f cols.(j) - off f cols.(j)
    done;
    let b = Bytes.create !len in
    Bytes.set_uint16_le b 0 (Array.length cols);
    let p = ref 2 in
    for j = 0 to Array.length cols - 1 do
      let o = off f cols.(j) in
      let l = stop f cols.(j) - o in
      Bytes.blit f.buf o b !p l;
      p := !p + l
    done;
    b

  (* A record's fields lie back to back, so its first [n] are one read. *)
  let tuple f ~n =
    if n < 0 || n > f.count then invalid_arg "Codec.Fields: no such field";
    let t = Array.make n Value.Null in
    if n > 0 then ignore (fill f.buf (off f 0) ~limit:(Bytes.length f.buf) t : int);
    t
end

(* The frame and record checksum.  [mix32] multiplies by an odd constant
   mod 2^32, then xorshifts: both are bijections on 32-bit values, so a
   step [mix32 (h lxor w)] is a bijection in the state [h] and injective
   in the word [w].  The payload is consumed in 16-byte blocks by four
   independent lanes, one aligned 32-bit word each per block; the lanes
   are then folded in sequence into a sum seeded with the length, and
   the 0-15 tail bytes follow as words, the last one zero-padded.  A
   change confined to one aligned word changes one step of one chain of
   injective steps, so it always changes the sum.  Each 64-bit load is
   split into its two 32-bit halves ([Int64.to_int] of the whole word
   would drop bit 63), and the lanes run on unboxed [int64]s, which
   spares each step the tagged-int arithmetic. *)
let[@inline] mix32 h =
  let h = Int64.logand (Int64.mul h 0x9E3779B1L) 0xFFFFFFFFL in
  Int64.logxor h (Int64.shift_right_logical h 16)

let[@inline] step h w = mix32 (Int64.logxor h w)

let checksum_word h w = Int64.to_int (step (Int64.of_int h) (Int64.of_int (w land 0xFFFFFFFF)))

let checksum b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.checksum";
  let lo w = Int64.logand w 0xFFFFFFFFL and hi w = Int64.shift_right_logical w 32 in
  let h0 = ref 0x243F6A88L and h1 = ref 0x85A308D3L in
  let h2 = ref 0x13198A2EL and h3 = ref 0x03707344L in
  let blocks_end = pos + (len land lnot 15) in
  let i = ref pos in
  while !i < blocks_end do
    let a = Bytes.get_int64_le b !i and c = Bytes.get_int64_le b (!i + 8) in
    h0 := step !h0 (lo a);
    h1 := step !h1 (hi a);
    h2 := step !h2 (lo c);
    h3 := step !h3 (hi c);
    i := !i + 16
  done;
  let h = ref (step (step (step (step (Int64.of_int len) !h0) !h1) !h2) !h3) in
  let stop = pos + len in
  while !i + 4 <= stop do
    h := step !h (lo (Int64.of_int32 (Bytes.get_int32_le b !i)));
    i := !i + 4
  done;
  if !i < stop then begin
    let w = ref 0 in
    for k = stop - 1 downto !i do
      w := (!w lsl 8) lor Char.code (Bytes.unsafe_get b k)
    done;
    h := step !h (Int64.of_int !w)
  end;
  Int64.to_int !h
