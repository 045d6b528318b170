(* The refresh stream's wire format, pinned byte for byte.

   The reference encoder below is written from the documented layout, not
   from the library: a message is a tag byte then its fields — addresses,
   timestamps and counts as little-endian i64 (OCaml ints) or u32 (string
   lengths, list and run counts), tuples as a u16 field count then
   tag-byte values.  A frame is tag 0xF7, epoch and seq as i64, the u32
   checksum of the payload folded with epoch and seq, then the
   payload: a lone message, or tag 10, a u32 count and each message
   behind a u32 length.  The library's encoders and stream writer must
   produce exactly these bytes, and its decoders must reject every
   truncation and every single-byte flip of a frame as
   [Refresh_msg.Corrupt] — leaving a snapshot's committed image alone. *)

open Snapdiff_storage
open Snapdiff_core
module Gen = QCheck2.Gen

(* ---- Reference encoder (the test's spec) ------------------------------ *)

let ref_u8 buf v = Buffer.add_char buf (Char.chr v)

let ref_u16 buf v =
  ref_u8 buf (v land 0xff);
  ref_u8 buf ((v lsr 8) land 0xff)

let ref_u32 buf v =
  for k = 0 to 3 do
    ref_u8 buf ((v lsr (8 * k)) land 0xff)
  done

let ref_i64 buf v =
  for k = 0 to 7 do
    ref_u8 buf (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL))
  done

let ref_int buf i = ref_i64 buf (Int64.of_int i)

let ref_string buf s =
  ref_u32 buf (String.length s);
  Buffer.add_string buf s

let ref_value buf = function
  | Value.Null -> ref_u8 buf 0
  | Value.Int i ->
    ref_u8 buf 1;
    ref_i64 buf i
  | Value.Float f ->
    ref_u8 buf 2;
    ref_i64 buf (Int64.bits_of_float f)
  | Value.Str s ->
    ref_u8 buf 3;
    ref_string buf s
  | Value.Bool b ->
    ref_u8 buf 4;
    ref_u8 buf (if b then 1 else 0)

let ref_tuple buf t =
  ref_u16 buf (Array.length t);
  Array.iter (ref_value buf) t

let ref_msg (m : Refresh_msg.t) =
  let buf = Buffer.create 64 in
  (match m with
  | Entry { addr; prev_qual; row } ->
    ref_u8 buf 1;
    ref_int buf addr;
    ref_int buf prev_qual;
    ref_tuple buf (Row.to_tuple row)
  | Tail { last_qual } ->
    ref_u8 buf 2;
    ref_int buf last_qual
  | Region { lo; hi } ->
    ref_u8 buf 3;
    ref_int buf lo;
    ref_int buf hi
  | Upsert { addr; row } ->
    ref_u8 buf 4;
    ref_int buf addr;
    ref_tuple buf (Row.to_tuple row)
  | Remove { addr } ->
    ref_u8 buf 5;
    ref_int buf addr
  | Clear -> ref_u8 buf 6
  | Snaptime ts ->
    ref_u8 buf 7;
    ref_int buf ts
  | Register { restrict; projection } ->
    ref_u8 buf 8;
    ref_string buf restrict;
    ref_u32 buf (List.length projection);
    List.iter (ref_string buf) projection
  | Request { snaptime } ->
    ref_u8 buf 9;
    ref_int buf snaptime);
  Buffer.contents buf

let ref_payload = function
  | [ m ] -> ref_msg m
  | ms ->
    let buf = Buffer.create 256 in
    ref_u8 buf 10;
    ref_u32 buf (List.length ms);
    List.iter
      (fun m ->
        let s = ref_msg m in
        ref_u32 buf (String.length s);
        Buffer.add_string buf s)
      ms;
    Buffer.contents buf

(* The checksum, byte by byte on tagged ints: [mix] multiplies by the odd
   constant 0x9E3779B1 mod 2^32, then xors in the top 16 bits; a word is
   four bytes little-endian, zero past the end of the payload.  Word [l]
   of each whole 16-byte block goes to lane [l]; the lanes are folded in
   order into a sum that starts at the payload's length, then the tail's
   words (the last one zero-padded), then epoch and seq as two words
   each, low half first. *)
let ref_mix h w =
  let h = ((h lxor w) * 0x9E3779B1) land 0xFFFFFFFF in
  h lxor (h lsr 16)

let ref_sum payload =
  let n = String.length payload in
  let word i =
    let w = ref 0 in
    for k = 3 downto 0 do
      w := (!w lsl 8) lor (if i + k < n then Char.code payload.[i + k] else 0)
    done;
    !w
  in
  let lanes = [| 0x243F6A88; 0x85A308D3; 0x13198A2E; 0x03707344 |] in
  let blocks = n / 16 in
  for blk = 0 to blocks - 1 do
    Array.iteri (fun l h -> lanes.(l) <- ref_mix h (word ((16 * blk) + (4 * l)))) lanes
  done;
  let h = ref (Array.fold_left ref_mix n lanes) in
  let i = ref (16 * blocks) in
  while !i < n do
    h := ref_mix !h (word !i);
    i := !i + 4
  done;
  !h

let ref_checksum ~epoch ~seq payload =
  List.fold_left
    (fun h v -> ref_mix h (v land 0xFFFFFFFF))
    (ref_sum payload)
    [ epoch; epoch lsr 32; seq; seq lsr 32 ]

let ref_framed ~epoch ~seq ms =
  let payload = ref_payload ms in
  let buf = Buffer.create (String.length payload + 21) in
  ref_u8 buf 0xF7;
  ref_int buf epoch;
  ref_int buf seq;
  ref_u32 buf (ref_checksum ~epoch ~seq payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ---- Generators: every constructor and every kind of value ------------ *)

let value_gen =
  Gen.oneof
    [ Gen.pure Value.Null;
      Gen.map
        (fun i -> Value.Int i)
        (Gen.oneof
           [ Gen.oneofl [ Int64.min_int; Int64.max_int; -1L; 0L ];
             Gen.map Int64.of_int Gen.int;
             Gen.map (fun i -> Int64.neg (Int64.of_int (abs i))) Gen.int ]);
      Gen.map
        (fun f -> Value.Float f)
        (Gen.oneof [ Gen.oneofl [ Float.nan; -0.0; 0.0; infinity; neg_infinity ]; Gen.float ]);
      Gen.map
        (fun s -> Value.Str s)
        (Gen.oneof
           [ Gen.pure ""; Gen.string_size (Gen.int_range 1 12);
             Gen.string_size (Gen.int_range 200 400) ]);
      Gen.map (fun b -> Value.Bool b) Gen.bool ]

let tuple_gen = Gen.map Array.of_list (Gen.list_size (Gen.int_range 0 6) value_gen)

let name_gen = Gen.string_size (Gen.int_range 0 10)

let leaf_gen =
  let open Refresh_msg in
  Gen.oneof
    [ Gen.map3
        (fun addr prev_qual values -> Entry { addr; prev_qual; row = Row.of_tuple values })
        Gen.int Gen.int tuple_gen;
      Gen.map (fun last_qual -> Tail { last_qual }) Gen.int;
      Gen.map2 (fun lo hi -> Region { lo; hi }) Gen.int Gen.int;
      Gen.map2 (fun addr values -> Upsert { addr; row = Row.of_tuple values }) Gen.int tuple_gen;
      Gen.map (fun addr -> Remove { addr }) Gen.int;
      Gen.pure Clear;
      Gen.map (fun ts -> Snaptime ts) Gen.int;
      Gen.map2
        (fun restrict projection -> Register { restrict; projection })
        name_gen
        (Gen.list_size (Gen.int_range 0 4) name_gen);
      Gen.map (fun snaptime -> Request { snaptime }) Gen.int ]

(* A frame's messages: any of them, in any order, mostly one or a few. *)
let frame_gen = Gen.list_size (Gen.frequency [ (3, Gen.pure 1); (2, Gen.int_range 2 6) ]) leaf_gen

let header_gen = Gen.oneof [ Gen.int_range 0 1000; Gen.map (fun i -> i land max_int) Gen.int ]

let case_gen = Gen.triple frame_gen header_gen header_gen

let print_msgs ms = String.concat "; " (List.map (Format.asprintf "%a" Refresh_msg.pp) ms)

let print_case (ms, epoch, seq) = Printf.sprintf "epoch=%d seq=%d [%s]" epoch seq (print_msgs ms)

(* ---- Properties ------------------------------------------------------- *)

let prop_encoders_match_reference =
  QCheck2.Test.make ~name:"wire: encode/encode_framed = reference layout, byte for byte"
    ~count:500 ~print:print_case case_gen (fun (ms, epoch, seq) ->
      List.iter
        (fun m ->
          let raw = Refresh_msg.encode m in
          if Bytes.to_string raw <> ref_msg m then
            QCheck2.Test.fail_reportf "encode differs from the reference (%d vs %d bytes)"
              (Bytes.length raw) (String.length (ref_msg m));
          if not (Refresh_msg.equal m (Refresh_msg.decode raw)) then
            QCheck2.Test.fail_report "decode . encode is not the identity")
        ms;
      let framed = Refresh_msg.encode_framed ~epoch ~seq ms in
      if Bytes.to_string framed <> ref_framed ~epoch ~seq ms then
        QCheck2.Test.fail_report "encode_framed differs from the reference";
      let f, got = Refresh_msg.decode_framed framed in
      f.Refresh_msg.epoch = epoch && f.Refresh_msg.seq = seq
      && f.Refresh_msg.marker = (match ms with [ Refresh_msg.Snaptime _ ] -> true | _ -> false)
      && List.equal Refresh_msg.equal ms got)

(* [decode_framed] of a damaged frame must raise [Corrupt] and nothing
   else: no other exception, no silent success. *)
let expect_corrupt what b =
  match Refresh_msg.decode_framed b with
  | (_ : Refresh_msg.frame * Refresh_msg.t list) ->
    QCheck2.Test.fail_reportf "%s decoded without error" what
  | exception Refresh_msg.Corrupt _ -> ()
  | exception e ->
    QCheck2.Test.fail_reportf "%s raised %s, not Corrupt" what (Printexc.to_string e)

(* Every damaged copy of one frame: each strict prefix, and each byte
   XORed with a nonzero mask. *)
let damaged framed mask =
  let len = Bytes.length framed in
  List.init len (fun cut -> (Printf.sprintf "%d/%d-byte prefix" cut len, Bytes.sub framed 0 cut))
  @ List.init len (fun i ->
        let b = Bytes.copy framed in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        (Printf.sprintf "flip 0x%02x at byte %d/%d" mask i len, b))

let prop_damaged_frames_are_corrupt =
  QCheck2.Test.make ~name:"wire: every truncation and byte flip of a frame raises Corrupt"
    ~count:300
    ~print:(fun (c, mask) -> Printf.sprintf "%s mask=0x%02x" (print_case c) mask)
    (Gen.pair case_gen (Gen.int_range 1 255))
    (fun ((ms, epoch, seq), mask) ->
      List.iter
        (fun m ->
          let raw = Refresh_msg.encode m in
          for cut = 0 to Bytes.length raw - 1 do
            match Refresh_msg.decode ~len:cut raw with
            | (_ : Refresh_msg.t) ->
              QCheck2.Test.fail_reportf "raw %d/%d-byte prefix decoded" cut (Bytes.length raw)
            | exception Failure _ -> ()
          done)
        ms;
      List.iter
        (fun (what, b) -> expect_corrupt what b)
        (damaged (Refresh_msg.encode_framed ~epoch ~seq ms) mask);
      true)

let snap_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let tuple name salary = Tuple.make [ Value.str name; Value.int salary ]

let row name salary = Row.of_tuple (tuple name salary)

(* A damaged frame inside an otherwise valid stream aborts it: the
   epoch's later frames are dropped and the committed image is what it
   was.  The stream's first frame is a valid upsert (so the stream is
   open when the damaged frame arrives, and a wrongful commit would show
   in the image); the damaged frame is the generated one at seq 1. *)
let prop_damaged_frame_keeps_committed_image =
  QCheck2.Test.make ~name:"wire: a damaged frame leaves the committed image unchanged"
    ~count:150
    ~print:(fun (c, mask) -> Printf.sprintf "%s mask=0x%02x" (print_case c) mask)
    (Gen.pair case_gen (Gen.int_range 1 255))
    (fun ((ms, _, _), mask) ->
      let snap = Snapshot_table.create ~name:"s" ~schema:snap_schema () in
      let a1 = Addr.make ~page:1 ~slot:0 and a2 = Addr.make ~page:1 ~slot:1 in
      let deliver = Test_properties.deliver snap in
      let send ~epoch ~seq msg = deliver (Refresh_msg.encode_framed ~epoch ~seq [ msg ]) in
      List.iteri
        (fun seq msg -> send ~epoch:0 ~seq msg)
        [ Refresh_msg.Upsert { addr = a1; row = row "a" 1 }; Refresh_msg.Snaptime 10 ];
      let image = Snapshot_table.contents snap in
      let epoch = ref 0 in
      List.iter
        (fun (what, bad) ->
          incr epoch;
          let epoch = !epoch in
          send ~epoch ~seq:0 (Refresh_msg.Upsert { addr = a2; row = row "b" epoch });
          deliver bad;
          send ~epoch ~seq:2 (Refresh_msg.Snaptime (10 + epoch));
          if Snapshot_table.contents snap <> image || Snapshot_table.snaptime snap <> 10 then
            QCheck2.Test.fail_reportf "%s: the committed image changed" what;
          if Snapshot_table.last_committed_epoch snap <> 0 then
            QCheck2.Test.fail_reportf "%s: epoch %d committed" what epoch)
        (damaged (Refresh_msg.encode_framed ~epoch:0 ~seq:1 ms) mask);
      (* The same stream undamaged does commit. *)
      incr epoch;
      List.iteri
        (fun seq msg -> send ~epoch:!epoch ~seq msg)
        [ Refresh_msg.Upsert { addr = a2; row = row "b" 0 }; Refresh_msg.Snaptime 99 ];
      Snapshot_table.last_committed_epoch snap = !epoch
      && Snapshot_table.get snap a2 = Some (tuple "b" 0))

(* ---- The checksum's guarantee ------------------------------------------ *)

(* Every single-byte corruption of [b.[lo, hi)] — each byte XORed with
   0x80 (bit 63 of a 64-bit load, when the byte ends one) and with
   [mask] — and the 32-bit word at [from + 4 * word] (aligned to [from],
   within [from, hi)) XORed with [garble], its bytes past [hi] left
   alone and at least one bit changed. *)
let corruptions b ~lo ~hi ~from ~mask ~word ~garble =
  let xor c i m = Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor m)) in
  let flip i m =
    let c = Bytes.copy b in
    xor c i m;
    (Printf.sprintf "flip 0x%02x at byte %d" m i, c)
  in
  let flips = List.concat (List.init (hi - lo) (fun k -> [ flip (lo + k) 0x80; flip (lo + k) mask ])) in
  if hi <= from then flips
  else begin
    let w = from + (4 * (word mod ((hi - from + 3) / 4))) in
    let n = min 4 (hi - w) in
    let g = garble land ((1 lsl (8 * n)) - 1) in
    let g = if g = 0 then 1 else g in
    let c = Bytes.copy b in
    for k = 0 to n - 1 do
      xor c (w + k) ((g lsr (8 * k)) land 0xff)
    done;
    (Printf.sprintf "garble 0x%08x at word %d" g w, c) :: flips
  end

let garble_gen = Gen.triple (Gen.int_range 1 255) Gen.nat (Gen.int_range 1 0xFFFFFFFF)

(* Frames of every message kind: each byte flip, and a garbled word of
   the payload, fails the header check.  A flip of the tag byte leaves
   bytes that are not a frame at all. *)
let prop_checksum_catches_frame_damage =
  QCheck2.Test.make ~name:"checksum: every byte flip and garbled payload word of a frame is caught"
    ~count:300
    ~print:(fun (c, (mask, word, garble)) ->
      Printf.sprintf "%s mask=0x%02x word=%d garble=0x%x" (print_case c) mask word garble)
    (Gen.pair case_gen garble_gen)
    (fun ((ms, epoch, seq), (mask, word, garble)) ->
      let framed = Refresh_msg.encode_framed ~epoch ~seq ms in
      let len = Bytes.length framed in
      let r = Refresh_msg.reader () in
      List.iter
        (fun (what, b) ->
          match Refresh_msg.open_frame r b len with
          | None when Bytes.get b 0 <> Bytes.get framed 0 -> ()
          | _ -> QCheck2.Test.fail_reportf "%s/%d bytes: the frame opened" what len
          | exception Refresh_msg.Corrupt _ -> ())
        (corruptions framed ~lo:0 ~hi:len ~from:21 ~mask ~word ~garble);
      true)

let short_tuple_gen =
  Gen.map
    (Array.map (function
      | Value.Str s when String.length s > 12 -> Value.Str (String.sub s 0 12)
      | v -> v))
    tuple_gen

let wal_record_gen =
  let open Snapdiff_wal.Record in
  let table = Gen.string_size (Gen.int_range 0 8) in
  let active = Gen.list_size (Gen.int_range 0 4) Gen.nat in
  Gen.oneof
    [ Gen.map (fun txn -> Begin { txn }) Gen.nat;
      Gen.map (fun txn -> Commit { txn }) Gen.nat;
      Gen.map (fun txn -> Abort { txn }) Gen.nat;
      Gen.map3 (fun txn addr tuple -> Insert { txn; table = "t"; addr; tuple }) Gen.nat Gen.nat
        short_tuple_gen;
      Gen.map3 (fun table addr old_tuple -> Delete { txn = 1; table; addr; old_tuple }) table
        Gen.nat short_tuple_gen;
      Gen.map3
        (fun addr old_tuple new_tuple -> Update { txn = 2; table = "u"; addr; old_tuple; new_tuple })
        Gen.nat short_tuple_gen short_tuple_gen;
      Gen.map (fun active -> Checkpoint { active }) active;
      Gen.map (fun active -> Begin_checkpoint { active }) active;
      Gen.map (fun begin_lsn -> End_checkpoint { begin_lsn }) Gen.nat ]

let image r =
  let b = Bytes.create (Snapdiff_wal.Record.size r) in
  ignore (Snapdiff_wal.Record.write b 0 r : int);
  b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* WAL record images: a segment of records, one of which is damaged —
   a byte of its frame (length, checksum or payload) flipped, or a word
   of its payload garbled.  Reopening stops at that record: exactly the
   records before it come back. *)
let prop_checksum_catches_record_damage =
  QCheck2.Test.make
    ~name:"checksum: every byte flip and garbled payload word of a WAL record stops the reopen"
    ~count:60
    ~print:(fun ((before, victim, after), (mask, word, garble)) ->
      let pp r = Format.asprintf "%a" Snapdiff_wal.Record.pp r in
      Printf.sprintf "[%s] victim=%s [%s] mask=0x%02x word=%d garble=0x%x"
        (String.concat "; " (List.map pp before)) (pp victim)
        (String.concat "; " (List.map pp after)) mask word garble)
    (Gen.pair
       (Gen.triple
          (Gen.list_size (Gen.int_range 0 2) wal_record_gen)
          wal_record_gen
          (Gen.list_size (Gen.int_range 0 2) wal_record_gen))
       garble_gen)
    (fun ((before, victim, after), (mask, word, garble)) ->
      let module Wal = Snapdiff_wal.Wal in
      let path = Filename.temp_file "snapdiff_wire" ".wal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let log = Wal.create ~backend:(Wal.File path) () in
          List.iter (fun r -> ignore (Wal.append log r : Wal.lsn)) (before @ (victim :: after));
          Wal.close log;
          let ic = open_in_bin path in
          let seg = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
          close_in ic;
          (* Frames follow the 16-byte segment header: a u32 payload
             length, a u32 checksum, then the payload. *)
          let frame_end off = off + 8 + Int32.to_int (Bytes.get_int32_le seg off) in
          let off = List.fold_left (fun off _ -> frame_end off) 16 before in
          List.iter
            (fun (what, b) ->
              write_file path b;
              let log = Wal.open_file path in
              let got = List.map snd (Wal.to_list log) in
              Wal.close log;
              (* Compared as images: a NaN field is not equal to itself. *)
              if List.map image got <> List.map image before then
                QCheck2.Test.fail_reportf "%s: %d records reopened, %d before the damaged one" what
                  (List.length got) (List.length before))
            (corruptions seg ~lo:off ~hi:(frame_end off) ~from:(off + 8) ~mask ~word ~garble);
          true))

(* ---- The writer's one frame buffer ------------------------------------- *)

type plan = Lossy of float | Garbling of float | Outage_at of int

let print_plan = function
  | Lossy p -> Printf.sprintf "drop %.2f" p
  | Garbling p -> Printf.sprintf "corrupt %.2f" p
  | Outage_at n -> Printf.sprintf "outage at send %d" (n + 1)

let plan_gen =
  Gen.oneof
    [ Gen.map (fun p -> Lossy p) (Gen.float_range 0.05 0.5);
      Gen.map (fun p -> Garbling p) (Gen.float_range 0.05 0.5);
      Gen.map (fun n -> Outage_at n) (Gen.int_range 0 12) ]

(* The writer writes each frame over the bytes of the one before.  Every
   frame it hands the link must still be the reference frame of the
   messages it carries: under loss (the frame never arrives), under
   corruption (the link garbles a copy, so what arrives differs from the
   reference in exactly one byte), and after an outage raised part-way
   through a run of data messages (the run is gone, and the stream goes
   on under the next sequence number).  The link's receiver copies each
   frame it hears, with the number of frames the link had accepted. *)
let prop_reused_buffer_leaks_nothing =
  QCheck2.Test.make ~name:"wire: every frame from the reused buffer = reference, under faults"
    ~count:200
    ~print:(fun (msgs, k, plan, seed) ->
      Printf.sprintf "k=%d %s seed=%d [%s]" k (print_plan plan) seed (print_msgs msgs))
    Gen.(
      quad
        (list_size (int_range 1 150) (frequency [ (6, leaf_gen); (1, pure Refresh_msg.Clear) ]))
        (oneofl [ 1; Refresh_msg.default_batch_size ])
        plan_gen nat)
    (fun (msgs, k, plan, seed) ->
      let module Link = Snapdiff_net.Link in
      let msgs = msgs @ [ Refresh_msg.Snaptime 1 ] in
      let link = Link.create () in
      let heard = ref [] in
      Link.attach link (fun b len ->
          heard := ((Link.stats link).Link.messages - 1, Bytes.sub b 0 len) :: !heard);
      (match plan with
      | Lossy p -> Link.inject_faults link ~drop_prob:p ~seed ()
      | Garbling p -> Link.inject_faults link ~corrupt_prob:p ~seed ()
      | Outage_at n -> Link.inject_faults link ~fail_after:n ~seed ());
      let w = Refresh_msg.writer ~batch_size:k ~epoch:7 link in
      let outages = ref 0 in
      List.iter
        (fun m -> try Refresh_msg.write w m with Link.Link_down _ -> incr outages)
        msgs;
      let frames = Test_properties.frames_of ~k msgs in
      (* A control message's write first sends the run before it: if that
         send raises, the control message goes with the run. *)
      let accepted =
        match plan with
        | Outage_at n when n < List.length frames ->
          let run = List.nth frames n in
          let last = if Refresh_msg.is_data (List.hd run) && List.length run < k then n + 1 else n in
          List.filteri (fun j _ -> j < n || j > last) frames
        | _ -> frames
      in
      let accepted = Array.of_list accepted in
      if !outages <> min 1 (List.length frames - Array.length accepted) then
        QCheck2.Test.fail_reportf "%d outages raised" !outages;
      let stats = Link.stats link in
      if List.length !heard + stats.Link.injected_drops <> Array.length accepted then
        QCheck2.Test.fail_reportf "%d frames heard, %d lost, of %d" (List.length !heard)
          stats.Link.injected_drops (Array.length accepted);
      let garbled =
        List.fold_left
          (fun garbled (seq, got) ->
            let want = ref_framed ~epoch:7 ~seq accepted.(seq) in
            let got = Bytes.to_string got in
            if got = want then garbled
            else begin
              let diff = ref 0 in
              if String.length got = String.length want then
                String.iteri (fun i c -> if c <> want.[i] then incr diff) got;
              if !diff <> 1 then
                QCheck2.Test.fail_reportf "frame %d differs from the reference (%d vs %d bytes)"
                  seq (String.length got) (String.length want);
              garbled + 1
            end)
          0 !heard
      in
      garbled = stats.Link.injected_corruptions)

(* ---- Rows as bytes ----------------------------------------------------- *)

(* A schema of 1-6 columns of any type, each nullable or not, and values
   of a column's type (NULL only where it is nullable). *)
let ty_gen = Gen.oneofl [ Value.Tint; Value.Tfloat; Value.Tstring; Value.Tbool ]

let schema_gen =
  Gen.map
    (fun cols ->
      Schema.make
        (List.mapi (fun i (ty, nullable) -> Schema.col ~nullable (Printf.sprintf "c%d" i) ty) cols))
    (Gen.list_size (Gen.int_range 1 6) (Gen.pair ty_gen Gen.bool))

let typed_value_gen (c : Schema.column) =
  let value =
    match c.ty with
    | Value.Tint ->
      Gen.map (fun i -> Value.Int i)
        (Gen.oneof
           [ Gen.oneofl [ Int64.min_int; Int64.max_int; 0L ]; Gen.map Int64.of_int Gen.int ])
    | Value.Tfloat ->
      Gen.map (fun f -> Value.Float f)
          (Gen.oneof [ Gen.oneofl [ Float.nan; -0.0; infinity ]; Gen.float ])
    | Value.Tstring ->
      Gen.map (fun s -> Value.Str s)
          (Gen.oneof [ Gen.pure ""; Gen.string_size (Gen.int_range 1 12) ])
    | Value.Tbool -> Gen.map (fun b -> Value.Bool b) Gen.bool
  in
  if c.nullable then Gen.oneof [ Gen.pure Value.Null; value ] else value

let conforming_gen schema =
  Gen.map Array.of_list (Gen.flatten_l (List.map typed_value_gen (Schema.columns schema)))

(* Any subset of the columns, in any order, repeats allowed. *)
let projection_gen arity =
  Gen.oneof
    [ Gen.pure None;
      Gen.map (fun l -> Some (Array.of_list l))
        (Gen.list_size (Gen.int_range 0 (arity + 2)) (Gen.int_range 0 (arity - 1))) ]

let print_rows (schema, rows, proj) =
  Format.asprintf "%a rows=[%s] project=%s" Schema.pp schema
    (String.concat "; " (List.map Tuple.to_string rows))
    (match proj with
    | None -> "all"
    | Some idx -> String.concat "," (Array.to_list (Array.map string_of_int idx)))

(* The scans' copy path on real pages: a base table holds the rows (the
   two annotation fields after them), every page is loaded and walked as
   the scans do, and each record's row copied by [Fixup.row] must be the
   bytes [Row.of_tuple] writes for the decoded projection. *)
let prop_copied_row_is_encoded_projection =
  QCheck2.Test.make ~name:"row copied from a walked record = Row.of_tuple of its projection"
    ~count:300 ~print:print_rows
    Gen.(
      schema_gen >>= fun schema ->
      triple (pure schema)
        (list_size (int_range 1 60) (conforming_gen schema))
        (projection_gen (Schema.arity schema)))
    (fun (schema, rows, proj) ->
      let base =
        Base_table.create ~page_size:512 ~name:"b" ~clock:(Snapdiff_txn.Clock.create ()) schema
      in
      List.iter (fun r -> ignore (Base_table.insert base r : Addr.t)) rows;
      let users = Hashtbl.create 64 in
      List.iter (fun (a, u) -> Hashtbl.replace users a u) (Base_table.to_user_list base);
      let ps = Fixup.page_scan () in
      let copied = ref 0 in
      for page = 1 to Base_table.data_pages base do
        Fixup.load_page ps base ~page Fixup.Read;
        for k = 0 to Fixup.entries ps - 1 do
          let user = Hashtbl.find users ps.Fixup.addrs.(k) in
          let want =
            Row.of_tuple (match proj with None -> user | Some idx -> Tuple.project_idx user idx)
          in
          let got = Fixup.row ps k proj in
          if not (Row.equal got want) then
            QCheck2.Test.fail_reportf "row %a: copied %a, encoded %a" Tuple.pp user Row.pp got
              Row.pp want;
          if not (Tuple.equal (Row.to_tuple got) (Row.to_tuple want)) then
            QCheck2.Test.fail_report "rows decode differently";
          incr copied
        done
      done;
      !copied = List.length rows)

(* [Row.field] decodes one field in place: field [i] of a row is field [i]
   of its decoded tuple, compared as bytes so that NaN, -0.0 and the
   int64 extremes count exactly; a field past the row is refused. *)
let prop_row_field_is_decoded_field =
  QCheck2.Test.make ~name:"Row.field r i = (Row.to_tuple r).(i)" ~count:500
    ~print:(fun (schema, t) -> Format.asprintf "%a row=%a" Schema.pp schema Tuple.pp t)
    Gen.(schema_gen >>= fun schema -> pair (pure schema) (conforming_gen schema))
    (fun (_, t) ->
      let r = Row.of_tuple t in
      let decoded = Row.to_tuple r in
      let same a b = Row.equal (Row.of_tuple [| a |]) (Row.of_tuple [| b |]) in
      Array.iteri
        (fun i v ->
          if not (same (Row.field r i) v) then
            QCheck2.Test.fail_reportf "field %d: %a, decoded %a" i Value.pp (Row.field r i) Value.pp v)
        decoded;
      List.for_all
        (fun i -> match Row.field r i with _ -> false | exception Invalid_argument _ -> true)
        [ -1; Array.length t ])

(* A row that breaks [schema]: one field too many or too few, a value of
   another type, or NULL in a NOT NULL column (when the schema has one). *)
let breaking_gen schema =
  let n = Schema.arity schema in
  Gen.(
    conforming_gen schema >>= fun t ->
    int_range 0 3 >>= fun kind ->
    int_range 0 (n - 1) >>= fun i ->
    value_gen >>= fun v ->
    pure
      (match kind with
      | 0 -> Array.append t [| v |]
      | 1 -> Array.sub t 0 (n - 1)
      | 2 -> t.(i) <- v; t
      | _ -> t.(i) <- Value.Null; t))

let prop_row_check_is_validate_tuple =
  QCheck2.Test.make ~name:"receiver's tag check = Schema.validate_tuple on the decoded row"
    ~count:500
    ~print:(fun (schema, t) -> Format.asprintf "%a %a" Schema.pp schema Tuple.pp t)
    Gen.(
      schema_gen >>= fun schema ->
      pair (pure schema) (oneof [ conforming_gen schema; breaking_gen schema ]))
    (fun (schema, t) ->
      let row = Row.of_tuple t in
      let verdict = Schema.validate_tuple schema t in
      if Row.validate schema row <> verdict then
        QCheck2.Test.fail_reportf "Row.validate disagrees with validate_tuple (%s)"
          (match verdict with Ok () -> "ok" | Error e -> e);
      (* The receiver commits the row's epoch iff the row fits. *)
      let snap = Snapshot_table.create ~name:"s" ~schema () in
      Test_properties.send_frames snap ~epoch:1
        [ [ Refresh_msg.Upsert { addr = 1; row } ]; [ Refresh_msg.Snaptime 5 ] ];
      let committed = Snapshot_table.last_committed_epoch snap = 1 in
      committed = Result.is_ok verdict
      && ((not committed) || Option.fold ~none:false ~some:(Tuple.equal t)
          (Snapshot_table.get snap 1)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_encoders_match_reference; prop_damaged_frames_are_corrupt;
      prop_checksum_catches_frame_damage; prop_checksum_catches_record_damage;
      prop_damaged_frame_keeps_committed_image; prop_reused_buffer_leaks_nothing; prop_copied_row_is_encoded_projection;
      prop_row_check_is_validate_tuple; prop_row_field_is_decoded_field ]
