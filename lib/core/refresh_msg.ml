open Snapdiff_storage

type t =
  | Entry of { addr : Addr.t; prev_qual : Addr.t; row : Row.t }
  | Tail of { last_qual : Addr.t }
  | Region of { lo : Addr.t; hi : Addr.t }
  | Upsert of { addr : Addr.t; row : Row.t }
  | Remove of { addr : Addr.t }
  | Clear
  | Snaptime of Snapdiff_txn.Clock.ts
  | Register of { restrict : string; projection : string list }
  | Request of { snaptime : Snapdiff_txn.Clock.ts }
  | Batch of t list

let rec is_data = function
  | Entry _ | Tail _ | Region _ | Upsert _ | Remove _ -> true
  | Clear | Snaptime _ | Register _ | Request _ -> false
  | Batch ms -> List.exists is_data ms

(* Only the per-entry data messages are worth coalescing; the bracketing
   control messages are rare and, in the case of Snaptime, must stand
   alone so a trailing batch is always flushed before the commit marker. *)
let batchable = function
  | Entry _ | Tail _ | Region _ | Upsert _ | Remove _ -> true
  | Clear | Snaptime _ | Register _ | Request _ | Batch _ -> false

let rec logical_count = function
  | Batch ms -> List.fold_left (fun acc m -> acc + logical_count m) 0 ms
  | _ -> 1

let rec pp ppf = function
  | Entry { addr; prev_qual; row } ->
    Format.fprintf ppf "entry %a (prev %a) %a" Addr.pp addr Addr.pp prev_qual Row.pp row
  | Tail { last_qual } -> Format.fprintf ppf "tail (last %a)" Addr.pp last_qual
  | Region { lo; hi } -> Format.fprintf ppf "region [%a, %a]" Addr.pp lo Addr.pp hi
  | Upsert { addr; row } -> Format.fprintf ppf "upsert %a %a" Addr.pp addr Row.pp row
  | Remove { addr } -> Format.fprintf ppf "remove %a" Addr.pp addr
  | Clear -> Format.pp_print_string ppf "clear"
  | Snaptime ts -> Format.fprintf ppf "snaptime %d" ts
  | Register { restrict; projection } ->
    Format.fprintf ppf "register restrict=%s project=(%s)" restrict
      (String.concat ", " projection)
  | Request { snaptime } -> Format.fprintf ppf "request snaptime=%d" snaptime
  | Batch ms ->
    Format.fprintf ppf "batch[%d](%a)" (List.length ms)
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp)
      ms

(* The one writer.  [size] is the exact encoded length, so every encoding
   is one allocation of the right size written front to back; a batch
   member's u32 length prefix is back-patched once the member is written,
   so member sizes are not computed twice.  A row is already its bytes:
   its size is its length and writing it is one blit. *)
let rec size = function
  | Entry { row; _ } -> 17 + Row.length row
  | Upsert { row; _ } -> 9 + Row.length row
  | Tail _ | Remove _ | Snaptime _ | Request _ -> 9
  | Region _ -> 17
  | Clear -> 1
  | Register { restrict; projection } ->
    List.fold_left
      (fun acc s -> acc + Codec.string_size s)
      (5 + Codec.string_size restrict) projection
  | Batch ms -> List.fold_left (fun acc m -> acc + 4 + size m) 5 ms

let rec write b off msg =
  match msg with
  | Entry { addr; prev_qual; row } ->
    let off = Codec.write_u8 b off 1 in
    let off = Codec.write_int b off addr in
    let off = Codec.write_int b off prev_qual in
    Row.write b off row
  | Tail { last_qual } -> Codec.write_int b (Codec.write_u8 b off 2) last_qual
  | Region { lo; hi } ->
    let off = Codec.write_u8 b off 3 in
    let off = Codec.write_int b off lo in
    Codec.write_int b off hi
  | Upsert { addr; row } ->
    let off = Codec.write_u8 b off 4 in
    let off = Codec.write_int b off addr in
    Row.write b off row
  | Remove { addr } -> Codec.write_int b (Codec.write_u8 b off 5) addr
  | Clear -> Codec.write_u8 b off 6
  | Snaptime ts -> Codec.write_int b (Codec.write_u8 b off 7) ts
  | Register { restrict; projection } ->
    let off = Codec.write_u8 b off 8 in
    let off = Codec.write_string b off restrict in
    let off = Codec.write_u32 b off (List.length projection) in
    List.fold_left (Codec.write_string b) off projection
  | Request { snaptime } -> Codec.write_int b (Codec.write_u8 b off 9) snaptime
  | Batch ms ->
    let off = Codec.write_u8 b off 10 in
    let off = Codec.write_u32 b off (List.length ms) in
    List.fold_left
      (fun off m ->
        let stop = write b (off + 4) m in
        ignore (Codec.write_u32 b off (stop - off - 4) : int);
        stop)
      off ms

let encode msg =
  let b = Bytes.create (size msg) in
  ignore (write b 0 msg : int);
  b

(* The one reader: straight from the received bytes through a cursor; a
   batch member is read inside its length-prefixed window, not copied
   out.  A row is checked and copied, not decoded: the receiver decodes
   it once, when it replays the message. *)
let rec read c =
  let module C = Codec.Cursor in
  match C.u8 c with
  | 1 ->
    let addr = C.int c in
    let prev_qual = C.int c in
    Entry { addr; prev_qual; row = Row.read c }
  | 2 -> Tail { last_qual = C.int c }
  | 3 ->
    let lo = C.int c in
    Region { lo; hi = C.int c }
  | 4 ->
    let addr = C.int c in
    Upsert { addr; row = Row.read c }
  | 5 -> Remove { addr = C.int c }
  | 6 -> Clear
  | 7 -> Snaptime (C.int c)
  | 8 ->
    let restrict = C.string c in
    let n = C.u32 c in
    let projection = ref [] in
    for _ = 1 to n do
      projection := C.string c :: !projection
    done;
    Register { restrict; projection = List.rev !projection }
  | 9 -> Request { snaptime = C.int c }
  | 10 ->
    let n = C.u32 c in
    let ms = ref [] in
    for _ = 1 to n do
      let len = C.u32 c in
      ms := C.within c len read_exactly :: !ms
    done;
    Batch (List.rev !ms)
  | _ -> failwith "Refresh_msg.decode: bad tag"

and read_exactly c =
  let msg = read c in
  if not (Codec.Cursor.at_end c) then failwith "Refresh_msg.decode: trailing bytes";
  msg

let decode b =
  let c = Codec.Cursor.create () in
  Codec.Cursor.set c b ~pos:0 ~len:(Bytes.length b);
  read_exactly c

(* ------------------------------------------------------------------ *)
(* Epoch framing.

   A refresh stream is a sequence of messages that is only meaningful as a
   whole: applying a prefix (link crash), a subsequence (silent loss), or
   a garbled member (corruption) yields a snapshot state that is neither
   the old nor the new consistent image.  Each framed message therefore
   carries the stream's epoch, its position in the stream, and a checksum
   over the payload; the stream commits with its final Snaptime marker.
   The frame tag byte is disjoint from every raw message tag, so framed
   and legacy raw encodings coexist on the same links. *)

type frame = { epoch : int; seq : int; msg : t }

exception Corrupt of string

let frame_tag = 0xF7

let header_size = 21  (* tag, epoch, seq, checksum *)

let fnv h byte = (h lxor byte) * 0x01000193 land 0xFFFFFFFF

(* FNV-1a over the payload [b.[pos, pos+len)], folded with epoch and seq
   so a frame whose header was garbled fails the check even if the
   payload survived. *)
let checksum ~epoch ~seq b ~pos ~len =
  let h = ref (Codec.fnv1a b ~pos ~len) in
  for k = 0 to 7 do
    h := fnv (fnv !h ((epoch lsr (8 * k)) land 0xFF)) ((seq lsr (8 * k)) land 0xFF)
  done;
  !h

let encode_framed ~epoch ~seq msg =
  if epoch < 0 || seq < 0 then invalid_arg "Refresh_msg.encode_framed: negative header";
  let len = size msg in
  let b = Bytes.create (header_size + len) in
  let off = Codec.write_u8 b 0 frame_tag in
  let off = Codec.write_int b off epoch in
  let off = Codec.write_int b off seq in
  ignore (write b header_size msg : int);
  ignore (Codec.write_u32 b off (checksum ~epoch ~seq b ~pos:header_size ~len) : int);
  b

let is_framed b = Bytes.length b > 0 && Char.code (Bytes.get b 0) = frame_tag

let decode_framed b =
  try
    let c = Codec.Cursor.create () in
    Codec.Cursor.set c b ~pos:0 ~len:(Bytes.length b);
    if Codec.Cursor.u8 c <> frame_tag then failwith "not a framed message";
    let epoch = Codec.Cursor.int c in
    let seq = Codec.Cursor.int c in
    let sum = Codec.Cursor.u32 c in
    if epoch < 0 || seq < 0 then failwith "negative frame header";
    let pos = Codec.Cursor.pos c in
    if checksum ~epoch ~seq b ~pos ~len:(Bytes.length b - pos) <> sum then
      failwith "checksum mismatch";
    { epoch; seq; msg = read_exactly c }
  with Failure reason | Invalid_argument reason -> raise (Corrupt reason)

(* The one stream writer (see the interface).  A frame's sequence number
   counts the frames the link accepted before it. *)
let default_batch_size = 64

type writer = {
  w_link : Snapdiff_net.Link.t;
  w_epoch : int;
  w_batch : int;
  mutable w_seq : int;
  mutable w_buffered : t list;  (* newest first *)
  mutable w_buffered_n : int;
  mutable w_encode_us : float;
}

let writer ?(batch_size = default_batch_size) ~epoch link =
  { w_link = link; w_epoch = epoch; w_batch = max 1 batch_size; w_seq = 0; w_buffered = [];
    w_buffered_n = 0; w_encode_us = 0.0 }

let send_frame w msg =
  let logical = logical_count msg in
  let t0 = Snapdiff_obs.Trace.now_us () in
  let framed = encode_framed ~epoch:w.w_epoch ~seq:w.w_seq msg in
  w.w_encode_us <- w.w_encode_us +. (Snapdiff_obs.Trace.now_us () -. t0);
  Snapdiff_net.Link.send w.w_link ~logical framed;
  w.w_seq <- w.w_seq + 1

let flush w =
  match w.w_buffered with
  | [] -> ()
  | ms ->
    w.w_buffered <- [];
    w.w_buffered_n <- 0;
    send_frame w (match ms with [ m ] -> m | ms -> Batch (List.rev ms))

let write w msg =
  if w.w_batch > 1 && batchable msg then begin
    w.w_buffered <- msg :: w.w_buffered;
    w.w_buffered_n <- w.w_buffered_n + 1;
    if w.w_buffered_n >= w.w_batch then flush w
  end
  else begin
    flush w;
    send_frame w msg
  end

let encode_us w = w.w_encode_us

let rec equal a b =
  match (a, b) with
  | Entry x, Entry y ->
    x.addr = y.addr && x.prev_qual = y.prev_qual && Row.equal x.row y.row
  | Tail x, Tail y -> x.last_qual = y.last_qual
  | Region x, Region y -> x.lo = y.lo && x.hi = y.hi
  | Upsert x, Upsert y -> x.addr = y.addr && Row.equal x.row y.row
  | Remove x, Remove y -> x.addr = y.addr
  | Clear, Clear -> true
  | Snaptime x, Snaptime y -> x = y
  | Register x, Register y -> x.restrict = y.restrict && x.projection = y.projection
  | Request x, Request y -> x.snaptime = y.snaptime
  | Batch x, Batch y -> List.length x = List.length y && List.for_all2 equal x y
  | ( ( Entry _ | Tail _ | Region _ | Upsert _ | Remove _ | Clear | Snaptime _
      | Register _ | Request _ | Batch _ ),
      _ ) ->
    false
