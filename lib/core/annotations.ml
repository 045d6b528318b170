open Snapdiff_storage

let prevaddr_col = "__prevaddr"
let timestamp_col = "__timestamp"

let columns =
  [ Schema.col prevaddr_col Value.Tint; Schema.col timestamp_col Value.Tint ]

let extend_schema schema =
  if Schema.mem schema prevaddr_col || Schema.mem schema timestamp_col then
    invalid_arg "Annotations.extend_schema: schema already annotated";
  Schema.extend schema columns

let is_annotated schema =
  let n = Schema.arity schema in
  n >= 3
  && (Schema.column schema (n - 2)).Schema.name = prevaddr_col
  && (Schema.column schema (n - 1)).Schema.name = timestamp_col

let strip_schema schema =
  if not (is_annotated schema) then
    invalid_arg "Annotations.strip_schema: schema not annotated";
  let user =
    List.filteri (fun i _ -> i < Schema.arity schema - 2) (Schema.columns schema)
  in
  Schema.make user

type t = {
  prev_addr : Addr.t option;
  timestamp : Snapdiff_txn.Clock.ts option;
}

let nulls = { prev_addr = None; timestamp = None }

(* NULL is stored as an in-band sentinel rather than a SQL NULL so that the
   two annotation fields have a fixed encoded width: the last 18 bytes of
   every stored record are [tag_int; PrevAddr as i64; tag_int; TimeStamp
   as i64], and the fix-up pass rewrites exactly those bytes in place
   ({!Base_table.set_annotations} via [Heap.patch_tail]) instead of
   re-encoding the row.  A tuple that grew (1-byte NULL tag -> 9-byte
   integer) could also fail to fit back into a tightly packed page.  R*
   had the same constraint solved by its fixed-width field encoding. *)
let null_sentinel = Int64.min_int

(* The scan-side form of a field: a plain int, NULL = [null].  Addresses
   and timestamps are non-negative, so [min_int] is free. *)
let null = min_int

let value_of_raw r = if r = null then Value.Int null_sentinel else Value.int r

let raw_of_opt = Option.value ~default:null

(* Range-checked like [Codec.Cursor.int]: an i64 outside OCaml's int
   range was not written here, and [Int64.to_int] would drop its bit 63
   (a flipped top bit of a stored PrevAddr would fold back to a valid
   address). *)
let raw_of_i64 i = if Int64.equal i null_sentinel then null else Codec.int_of_i64 i

let raw_of_value ~what = function
  | Value.Null -> null  (* tolerated on input (R*-style NULL extension) *)
  | Value.Int i -> raw_of_i64 i
  | v ->
    invalid_arg
      (Printf.sprintf "Annotations: %s field holds %s" what (Value.to_string v))

let check_arity what stored =
  if Array.length stored < 2 then invalid_arg ("Annotations." ^ what ^ ": tuple too short")

let raw_prev stored =
  check_arity "raw_prev" stored;
  raw_of_value ~what:prevaddr_col stored.(Array.length stored - 2)

let raw_ts stored =
  check_arity "raw_ts" stored;
  raw_of_value ~what:timestamp_col stored.(Array.length stored - 1)

let opt_of_raw r = if r = null then None else Some r

(* The same two readers over a walked record.  The annotation fields are
   located by the walk, as fields n-2 and n-1, not at a fixed distance
   from the record's end: that distance holds only while both fields are
   integers, and a tolerated SQL NULL field is 1 byte long.  An INT field
   is read here in place rather than through [Codec.Fields.value]: the
   scans read two of them per record, and a call into [Codec] would box
   the value and its i64. *)
let record_field ~what (f : Codec.Fields.t) i =
  let o = f.offs.(f.base + i) in
  let tag = Bytes.get f.buf o in
  if tag = Codec.tag_int then begin
    (* [raw_of_i64], kept in line so the i64 is never boxed. *)
    let v = Bytes.get_int64_le f.buf (o + 1) in
    if Int64.equal v null_sentinel then null
    else begin
      let r = Int64.to_int v in
      if not (Int64.equal (Int64.of_int r) v) then failwith "Codec: int out of range";
      r
    end
  end
  else if tag = Codec.tag_null then null
  else raw_of_value ~what (Codec.Fields.value f i)

let record_arity what (f : Codec.Fields.t) =
  let n = f.count in
  if n < 2 then invalid_arg ("Annotations." ^ what ^ ": tuple too short");
  n

let record_prev f = record_field ~what:prevaddr_col f (record_arity "record_prev" f - 2)

let record_ts f = record_field ~what:timestamp_col f (record_arity "record_ts" f - 1)

let record_patchable (f : Codec.Fields.t) =
  let n = f.count in
  n >= 2 && Codec.Fields.tag f (n - 2) = Codec.tag_int && Codec.Fields.tag f (n - 1) = Codec.tag_int

let user_pred p f = p (Codec.Fields.tuple f ~n:(record_arity "user_pred" f - 2))

let tail_bytes = 18

let patchable stored =
  let n = Array.length stored in
  n >= 2
  && (match stored.(n - 2), stored.(n - 1) with Value.Int _, Value.Int _ -> true | _ -> false)

(* Two INT fields written in place rather than through
   [Codec.write_value]: a fix-up patches every changed record's tail, and
   a [Value.Int] per field would box the value and its i64. *)
let write_tail b ~prev ~ts =
  let field off r =
    Bytes.set b off Codec.tag_int;
    Bytes.set_int64_le b (off + 1) (if r = null then null_sentinel else Int64.of_int r)
  in
  field 0 prev;
  field 9 ts

let encode_tail ~prev ~ts =
  let b = Bytes.create tail_bytes in
  write_tail b ~prev ~ts;
  b

let annotate user ann =
  let n = Array.length user in
  Array.init (n + 2) (fun i ->
      if i < n then user.(i)
      else if i = n then value_of_raw (raw_of_opt ann.prev_addr)
      else value_of_raw (raw_of_opt ann.timestamp))

let split stored =
  check_arity "split" stored;
  let n = Array.length stored in
  ( Array.sub stored 0 (n - 2),
    { prev_addr = opt_of_raw (raw_prev stored); timestamp = opt_of_raw (raw_ts stored) } )

let user_part stored =
  check_arity "user_part" stored;
  Array.sub stored 0 (Array.length stored - 2)

let with_raw stored ~prev ~ts =
  check_arity "with_annotations" stored;
  let n = Array.length stored in
  let t = Array.copy stored in
  t.(n - 2) <- value_of_raw prev;
  t.(n - 1) <- value_of_raw ts;
  t

let with_annotations stored ann =
  with_raw stored ~prev:(raw_of_opt ann.prev_addr) ~ts:(raw_of_opt ann.timestamp)

let pp ppf t =
  let pp_opt ppf = function
    | None -> Format.pp_print_string ppf "NULL"
    | Some i -> Format.pp_print_int ppf i
  in
  Format.fprintf ppf "{prev=%a; ts=%a}" pp_opt t.prev_addr pp_opt t.timestamp
