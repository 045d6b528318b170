type ty = Tint | Tfloat | Tstring | Tbool

type t =
  | Null
  | Int of int64
  | Float of float
  | Str of string
  | Bool of bool

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool

let ty_name = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Tstring -> "STRING"
  | Tbool -> "BOOL"

let has_type v ty =
  match type_of v with None -> true | Some ty' -> ty = ty'

let is_null = function Null -> true | _ -> false

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int64.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int i -> Format.fprintf ppf "%Ld" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s ->
    (* SQL-style quoting with '' escaping, so printed literals re-parse. *)
    Format.fprintf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Bool b -> Format.pp_print_string ppf (if b then "TRUE" else "FALSE")

let to_string v = Format.asprintf "%a" pp v

let int i = Int (Int64.of_int i)
let str s = Str s

(* Codec tags. *)
let tag_null = '\000'
let tag_int = '\001'
let tag_float = '\002'
let tag_str = '\003'
let tag_bool = '\004'

let encoded_size = function
  | Null -> 1
  | Int _ -> 9
  | Float _ -> 9
  | Bool _ -> 2
  | Str s -> 5 + String.length s

let write b off v =
  match v with
  | Null ->
    Bytes.set b off tag_null;
    off + 1
  | Int i ->
    Bytes.set b off tag_int;
    Bytes.set_int64_le b (off + 1) i;
    off + 9
  | Float f ->
    Bytes.set b off tag_float;
    Bytes.set_int64_le b (off + 1) (Int64.bits_of_float f);
    off + 9
  | Str s ->
    let len = String.length s in
    Bytes.set b off tag_str;
    Bytes.set_int32_le b (off + 1) (Int32.of_int len);
    Bytes.blit_string s 0 b (off + 5) len;
    off + 5 + len
  | Bool x ->
    Bytes.set b off tag_bool;
    Bytes.set b (off + 1) (if x then '\001' else '\000');
    off + 2

let need b off n =
  if off + n > Bytes.length b then failwith "Value.decode: truncated"

let get_u32 b off =
  need b off 4;
  Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff

let get_i64 b off =
  need b off 8;
  Bytes.get_int64_le b off

let decode b off =
  need b off 1;
  let tag = Bytes.get b off in
  let off = off + 1 in
  if tag = tag_null then (Null, off)
  else if tag = tag_int then (Int (get_i64 b off), off + 8)
  else if tag = tag_float then (Float (Int64.float_of_bits (get_i64 b off)), off + 8)
  else if tag = tag_str then begin
    let len = get_u32 b off in
    need b (off + 4) len;
    (Str (Bytes.sub_string b (off + 4) len), off + 4 + len)
  end
  else if tag = tag_bool then begin
    need b off 1;
    (Bool (Bytes.get b off <> '\000'), off + 1)
  end
  else failwith "Value.decode: bad tag"
