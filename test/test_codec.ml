(* The byte formats, pinned against bytes captured from the encoder
   before the value, tuple and WAL record layouts moved into [Codec]: a
   tuple of every value type and edge (NULL, the int64 extremes, -0.0, a
   NaN, empty and long strings, both bools) and one WAL record of every
   constructor must encode to exactly these bytes, [size] must be the
   length written, the cursor must read the value back and consume it
   exactly, and every strict prefix must raise [Failure] and nothing
   else. *)

open Snapdiff_storage
module Record = Snapdiff_wal.Record

let hex b =
  String.concat ""
    (List.map (fun ch -> Printf.sprintf "%02x" (Char.code ch)) (List.of_seq (Bytes.to_seq b)))

let nan_bits = Int64.float_of_bits 0x7FF8_0000_0000_0001L

let long = String.init 300 (fun i -> Char.chr (i land 0xff))

let tuples =
  [
    ("empty", [||], "0000");
    ("null", [| Value.Null |], "010000");
    ("int64 min", [| Value.Int Int64.min_int |], "0100010000000000000080");
    ("int64 max", [| Value.Int Int64.max_int |], "010001ffffffffffffff7f");
    ("minus zero", [| Value.Float (-0.0) |], "0100020000000000000080");
    ("nan", [| Value.Float nan_bits |], "010002010000000000f87f");
    ("empty string", [| Value.Str "" |], "01000300000000");
    ( "long string",
      [| Value.Str long |],
      "0100032c010000000102030405060708090a0b0c0d0e0f101112131415161718"
      ^ "191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738"
      ^ "393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758"
      ^ "595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778"
      ^ "797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798"
      ^ "999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8"
      ^ "b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8"
      ^ "d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8"
      ^ "f9fafbfcfdfeff000102030405060708090a0b0c0d0e0f101112131415161718"
      ^ "191a1b1c1d1e1f202122232425262728292a2b" );
    ("bools", [| Value.Bool true; Value.Bool false |], "020004010400");
    ( "mixed",
      [| Value.int (-5); Value.Null; Value.Str "abc"; Value.Float 1.5; Value.Bool true |],
      "050001fbffffffffffffff00030300000061626302000000000000f83f0401" );
  ]

let row = [| Value.int 42; Value.Str "k"; Value.Null |]
let row2 = [| Value.int 43; Value.Str "kk"; Value.Bool false |]

let records =
  [
    ("begin", Record.Begin { txn = 1 }, "010100000000000000");
    ("commit", Record.Commit { txn = 2 }, "020200000000000000");
    ("abort", Record.Abort { txn = -3 }, "03fdffffffffffffff");
    ( "insert",
      Record.Insert { txn = 4; table = "t"; addr = 65537; tuple = row },
      "040400000000000000010000007401000100000000000300012a000000000000"
      ^ "0003010000006b00" );
    ( "delete",
      Record.Delete { txn = 5; table = "emp"; addr = max_int; old_tuple = row2 },
      "05050000000000000003000000656d70ffffffffffffff3f0300012b00000000"
      ^ "00000003020000006b6b0400" );
    ( "update",
      Record.Update { txn = 6; table = ""; addr = 0; old_tuple = row; new_tuple = row2 },
      "0606000000000000000000000000000000000000000300012a00000000000000"
      ^ "03010000006b000300012b0000000000000003020000006b6b0400" );
    ( "checkpoint",
      Record.Checkpoint { active = [ 7; 8; min_int ] },
      "07030000000700000000000000080000000000000000000000000000c0" );
    ("begin_checkpoint", Record.Begin_checkpoint { active = [] }, "0800000000");
    ( "end_checkpoint",
      Record.End_checkpoint { begin_lsn = 123456789 },
      "0915cd5b0700000000" );
  ]

(* Every strict prefix of [b], read by [read] through a cursor whose
   window ends at the cut, raises [Failure]. *)
let prefixes_fail name b read =
  let c = Codec.Cursor.create () in
  for cut = 0 to Bytes.length b - 1 do
    Codec.Cursor.set c b ~pos:0 ~len:cut;
    match read c with
    | _ -> Alcotest.failf "%s: a %d/%d-byte prefix decoded" name cut (Bytes.length b)
    | exception Failure _ -> ()
    | exception e ->
      Alcotest.failf "%s: a %d-byte prefix raised %s" name cut (Printexc.to_string e)
  done

let test_tuple_golden () =
  List.iter
    (fun (name, t, golden) ->
      let b = Codec.tuple_bytes t in
      Alcotest.(check string) (name ^ ": bytes") golden (hex b);
      Alcotest.(check int) (name ^ ": tuple_size") (Bytes.length b) (Codec.tuple_size t);
      let c = Codec.Cursor.over b in
      Alcotest.(check bool) (name ^ ": reads back") true (Tuple.equal t (Codec.Cursor.tuple c));
      Alcotest.(check bool) (name ^ ": consumed") true (Codec.Cursor.at_end c);
      prefixes_fail name b Codec.Cursor.tuple)
    tuples

let test_record_golden () =
  List.iter
    (fun (name, r, golden) ->
      let b = Bytes.create (Record.size r) in
      Alcotest.(check int) (name ^ ": size = length written") (Record.size r) (Record.write b 0 r);
      Alcotest.(check string) (name ^ ": bytes") golden (hex b);
      let c = Codec.Cursor.over b in
      Alcotest.(check bool) (name ^ ": reads back") true (Record.read c = r);
      Alcotest.(check bool) (name ^ ": consumed") true (Codec.Cursor.at_end c);
      prefixes_fail name b Record.read)
    records

let suite =
  [
    Alcotest.test_case "tuple bytes = golden" `Quick test_tuple_golden;
    Alcotest.test_case "wal record bytes = golden" `Quick test_record_golden;
  ]
