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

let is_data = function
  | Entry _ | Tail _ | Region _ | Upsert _ | Remove _ -> true
  | Clear | Snaptime _ | Register _ | Request _ -> false

let pp ppf = function
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

(* The one writer.  [size] is the exact encoded length, so a message is
   written front to back into room already made for it.  A row is
   already its bytes: its size is its length and writing it is one
   blit. *)
let size = function
  | Entry { row; _ } -> 17 + Row.length row
  | Upsert { row; _ } -> 9 + Row.length row
  | Tail _ | Remove _ | Snaptime _ | Request _ -> 9
  | Region _ -> 17
  | Clear -> 1
  | Register { restrict; projection } ->
    List.fold_left
      (fun acc s -> acc + Codec.string_size s)
      (5 + Codec.string_size restrict) projection

let write b off msg =
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

let encode msg =
  let b = Bytes.create (size msg) in
  ignore (write b 0 msg : int);
  b

(* The one reader: straight from the received bytes through a cursor.  A
   row is checked and copied, not decoded: the receiver decodes it once,
   when it replays the message. *)
let read c =
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
  | _ -> failwith "Refresh_msg.decode: bad tag"

let read_exactly c =
  let msg = read c in
  if not (Codec.Cursor.at_end c) then failwith "Refresh_msg.decode: trailing bytes";
  msg

let decode ?len b =
  let c = Codec.Cursor.create () in
  Codec.Cursor.set c b ~pos:0 ~len:(Option.value len ~default:(Bytes.length b));
  read_exactly c

(* ------------------------------------------------------------------ *)
(* Frames: their layout is the interface's. *)

exception Corrupt of string

let frame_tag = 0xF7
let run_tag = 10
let header_size = 21  (* tag, epoch, seq, checksum *)
let members = header_size + 5  (* past the run's tag and count *)

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

(* A frame in the making: messages written in place as a run from
   [members] on.  [seal] writes the run's header, or shifts a lone
   message over it, then the frame header and checksum; [pos] is then
   the frame's length. *)
type frame_buf = { mutable buf : bytes; mutable pos : int; mutable count : int }

let frame_buf () = { buf = Bytes.create 256; pos = members; count = 0 }

let add f msg =
  let len = size msg in
  if f.pos + 4 + len > Bytes.length f.buf then begin
    let b = Bytes.create (max (f.pos + 4 + len) (2 * Bytes.length f.buf)) in
    Bytes.blit f.buf 0 b 0 f.pos;
    f.buf <- b
  end;
  ignore (Codec.write_u32 f.buf f.pos len : int);
  f.pos <- write f.buf (f.pos + 4) msg;
  f.count <- f.count + 1

let seal f ~epoch ~seq =
  if epoch < 0 || seq < 0 then invalid_arg "Refresh_msg: negative frame header";
  let b = f.buf in
  if f.count = 1 then begin
    Bytes.blit b (members + 4) b header_size (f.pos - members - 4);
    f.pos <- f.pos - 9
  end
  else ignore (Codec.write_u32 b (Codec.write_u8 b header_size run_tag) f.count : int);
  let off = Codec.write_u8 b 0 frame_tag in
  let off = Codec.write_int b off epoch in
  let off = Codec.write_int b off seq in
  ignore (Codec.write_u32 b off (checksum ~epoch ~seq b ~pos:header_size ~len:(f.pos - header_size)) : int)

(* The one stream writer (see the interface).  A frame's sequence number
   counts the frames the link accepted before it. *)
let default_batch_size = 64

type writer = {
  w_link : Snapdiff_net.Link.t;
  w_epoch : int;
  w_batch : int;
  w_frame : frame_buf;
  mutable w_seq : int;
  mutable w_link_us : float;
}

let writer ?(batch_size = default_batch_size) ~epoch link =
  { w_link = link; w_epoch = epoch; w_batch = max 1 batch_size; w_frame = frame_buf ();
    w_seq = 0; w_link_us = 0.0 }

let flush w =
  let f = w.w_frame in
  if f.count > 0 then begin
    seal f ~epoch:w.w_epoch ~seq:w.w_seq;
    let len = f.pos and logical = f.count in
    f.pos <- members;
    f.count <- 0;
    let t0 = Snapdiff_obs.Trace.now_us () in
    Snapdiff_net.Link.send w.w_link ~logical ~len f.buf;
    w.w_link_us <- w.w_link_us +. (Snapdiff_obs.Trace.now_us () -. t0);
    w.w_seq <- w.w_seq + 1
  end

let write w msg =
  let data = is_data msg in
  if not data then flush w;
  add w.w_frame msg;
  if w.w_frame.count >= w.w_batch || not data then flush w

let link_us w = w.w_link_us

(* The one frame reader: a frame's header and checksum once, then its
   messages one at a time from the frame's own bytes. *)
type frame = { epoch : int; seq : int; marker : bool }

type reader = { cur : Codec.Cursor.t; mutable left : int; mutable run : bool }

let reader () = { cur = Codec.Cursor.create (); left = 0; run = false }

let open_frame r b len =
  let module C = Codec.Cursor in
  let c = r.cur in
  r.left <- 0;
  if len = 0 || Char.code (Bytes.get b 0) <> frame_tag then None
  else
    try
      C.set c b ~pos:1 ~len:(len - 1);
      let epoch = C.int c in
      let seq = C.int c in
      let sum = C.u32 c in
      if epoch < 0 || seq < 0 then failwith "negative frame header";
      if checksum ~epoch ~seq b ~pos:header_size ~len:(len - header_size) <> sum then
        failwith "checksum mismatch";
      let tag = C.u8 c in
      r.run <- tag = run_tag;
      r.left <- (if r.run then C.u32 c else 1);
      if not r.run then C.set c b ~pos:header_size ~len:(len - header_size);
      Some { epoch; seq; marker = tag = 7 }
    with Failure reason | Invalid_argument reason -> raise (Corrupt reason)

let frame_epoch b len =
  if len < header_size || Char.code (Bytes.get b 0) <> frame_tag then -1
  else
    match Codec.int_of_i64 (Bytes.get_int64_le b 1) with
    | epoch -> max (-1) epoch
    | exception Failure _ -> -1

let next r =
  let module C = Codec.Cursor in
  let c = r.cur in
  try
    if r.left = 0 then
      if C.at_end c then None else failwith "Refresh_msg.decode: trailing bytes"
    else begin
      r.left <- r.left - 1;
      Some (if r.run then C.within c (C.u32 c) read_exactly else read c)
    end
  with Failure reason | Invalid_argument reason ->
    r.left <- 0;
    raise (Corrupt reason)

let encode_framed ~epoch ~seq msgs =
  let f = frame_buf () in
  List.iter (add f) msgs;
  seal f ~epoch ~seq;
  Bytes.sub f.buf 0 f.pos

let decode_framed b =
  let r = reader () in
  let rec go acc = match next r with Some m -> go (m :: acc) | None -> List.rev acc in
  match open_frame r b (Bytes.length b) with
  | Some frame -> (frame, go [])
  | None -> raise (Corrupt "not a framed message")

let equal a b =
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
  | ( ( Entry _ | Tail _ | Region _ | Upsert _ | Remove _ | Clear | Snaptime _
      | Register _ | Request _ ),
      _ ) ->
    false
