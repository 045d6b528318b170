(* Tests for WAL records, the log manager, redo recovery and net-change
   extraction. *)

open Snapdiff_storage
open Snapdiff_wal

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let tuple = Alcotest.testable Tuple.pp Tuple.equal

(* Truncate a log no one holds: the truncation reaches its ceiling. *)
let truncate log lsn = checkb "no hold stops the truncation" true (Wal.truncate_before log lsn = [])

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let a1 = Addr.make ~page:1 ~slot:0
let a2 = Addr.make ~page:1 ~slot:1
let a3 = Addr.make ~page:2 ~slot:0

let sample_records =
  [
    Record.Begin { txn = 1 };
    Record.Commit { txn = 1 };
    Record.Abort { txn = 9 };
    Record.Insert { txn = 1; table = "emp"; addr = a1; tuple = emp "Bruce" 15 };
    Record.Delete { txn = 2; table = "emp"; addr = a2; old_tuple = emp "Jack" 6 };
    Record.Update
      { txn = 3; table = "emp"; addr = a3; old_tuple = emp "Hamid" 9; new_tuple = emp "Hamid" 15 };
    Record.Checkpoint { active = [ 1; 2; 3 ] };
    Record.Checkpoint { active = [] };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      let b = Bytes.create (Record.size r) in
      checki "size exact" (Bytes.length b) (Record.write b 0 r);
      let c = Codec.Cursor.over b in
      checkb "roundtrip" true (r = Record.read c);
      checkb "consumed" true (Codec.Cursor.at_end c))
    sample_records

let test_record_metadata () =
  Alcotest.(check (option int)) "txn of begin" (Some 1) (Record.txn_of (List.nth sample_records 0));
  Alcotest.(check (option int)) "txn of checkpoint" None
    (Record.txn_of (Record.Checkpoint { active = [] }));
  Alcotest.(check (option string)) "table of insert" (Some "emp")
    (Record.table_of (List.nth sample_records 3));
  Alcotest.(check (option string)) "table of commit" None
    (Record.table_of (Record.Commit { txn = 1 }))

let test_wal_append_iter () =
  let log = Wal.create () in
  let lsns = List.map (Wal.append log) sample_records in
  checki "count" (List.length sample_records) (Wal.record_count log);
  checkb "lsns strictly increasing" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length lsns - 1) lsns) (List.tl lsns));
  let replayed = List.map snd (Wal.to_list log) in
  checkb "replay equals input" true (replayed = sample_records);
  (* iter_from a mid LSN yields the suffix. *)
  let third = List.nth lsns 2 in
  let suffix = Wal.fold_from log third ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  checki "suffix" (List.length sample_records - 2) suffix

let test_wal_read_exact () =
  let log = Wal.create () in
  let l1 = Wal.append log (Record.Begin { txn = 5 }) in
  let l2 = Wal.append log (Record.Commit { txn = 5 }) in
  let r, next = Wal.read log l1 in
  checkb "first" true (r = Record.Begin { txn = 5 });
  checki "next lsn" l2 next;
  Alcotest.check_raises "bad lsn" (Failure "Wal.read: bad LSN") (fun () ->
      ignore (Wal.read log 999_999))

let with_tmp_wal f =
  let path = Filename.temp_file "snapdiff_walseg" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let schema =
  Schema.make [ Schema.col ~nullable:false "name" Value.Tstring; Schema.col "salary" Value.Tint ]

(* A scripted history: t1 commits inserts, t2 aborts (implicitly - no commit
   record), t3 commits an update and a delete. *)
let scripted_log () =
  let log = Wal.create () in
  let app r = ignore (Wal.append log r) in
  app (Record.Begin { txn = 1 });
  app (Record.Insert { txn = 1; table = "emp"; addr = a1; tuple = emp "Bruce" 15 });
  app (Record.Insert { txn = 1; table = "emp"; addr = a2; tuple = emp "Laura" 6 });
  app (Record.Insert { txn = 1; table = "emp"; addr = a3; tuple = emp "Jack" 6 });
  app (Record.Commit { txn = 1 });
  app (Record.Begin { txn = 2 });
  app (Record.Insert { txn = 2; table = "emp"; addr = Addr.make ~page:2 ~slot:1;
                       tuple = emp "Ghost" 1 });
  app (Record.Abort { txn = 2 });
  app (Record.Begin { txn = 3 });
  app (Record.Update { txn = 3; table = "emp"; addr = a1; old_tuple = emp "Bruce" 15;
                       new_tuple = emp "Bruce" 16 });
  app (Record.Delete { txn = 3; table = "emp"; addr = a3; old_tuple = emp "Jack" 6 });
  app (Record.Commit { txn = 3 });
  log

let test_redo_rebuilds_committed_state () =
  let log = scripted_log () in
  let heap = Heap.create ~page_size:512 schema in
  Recovery.redo log (function "emp" -> Some heap | _ -> None);
  checki "two live" 2 (Heap.count heap);
  Alcotest.check (Alcotest.option tuple) "updated Bruce" (Some (emp "Bruce" 16))
    (Heap.get heap a1);
  Alcotest.check (Alcotest.option tuple) "Laura" (Some (emp "Laura" 6)) (Heap.get heap a2);
  checkb "Jack deleted" true (Heap.get heap a3 = None);
  checkb "aborted txn invisible" true (Heap.get heap (Addr.make ~page:2 ~slot:1) = None)

let test_redo_skips_unresolved_tables () =
  let log = scripted_log () in
  (* Resolving nothing must not raise. *)
  Recovery.redo log (fun _ -> None)

let test_net_changes_full_window () =
  let log = scripted_log () in
  let changes, stats = Recovery.net_changes log ~table:"emp" ~since:Wal.start_lsn in
  (* Net effect: a1 present (16), a2 present; a3 was inserted AND deleted
     inside the window -> nets out entirely. *)
  checki "two net changes" 2 (List.length changes);
  (match List.assoc_opt a1 changes with
  | Some { Recovery.before; after = Some t } ->
    Alcotest.check tuple "a1 final" (emp "Bruce" 16) t;
    checkb "a1 did not exist at window start" true (before = None)
  | _ -> Alcotest.fail "a1 must be present");
  (match List.assoc_opt a2 changes with
  | Some { Recovery.after = Some t; _ } -> Alcotest.check tuple "a2 final" (emp "Laura" 6) t
  | _ -> Alcotest.fail "a2 must be present");
  checkb "a3 netted out" true (List.assoc_opt a3 changes = None);
  checkb "scanned everything" true (stats.Recovery.records_scanned = Wal.record_count log);
  checkb "only committed emp records relevant" true (stats.Recovery.relevant = 5)

let test_net_changes_since_mid_log () =
  let log = scripted_log () in
  (* Find the LSN of t3's Begin: changes before it are invisible. *)
  let since =
    Wal.fold_from log Wal.start_lsn ~init:None ~f:(fun acc lsn r ->
        match (acc, r) with
        | None, Record.Begin { txn = 3 } -> Some lsn
        | acc, _ -> acc)
    |> Option.get
  in
  let changes, _ = Recovery.net_changes log ~table:"emp" ~since in
  checki "two changes" 2 (List.length changes);
  (match List.assoc_opt a1 changes with
  | Some { Recovery.before = Some b; after = Some t } ->
    Alcotest.check tuple "a1 updated" (emp "Bruce" 16) t;
    Alcotest.check tuple "a1 before pinned at window start" (emp "Bruce" 15) b
  | _ -> Alcotest.fail "a1 present");
  (* a3 pre-existed this window, so its delete IS a net change now. *)
  (match List.assoc_opt a3 changes with
  | Some { Recovery.before = Some b; after = None } ->
    Alcotest.check tuple "a3 old value" (emp "Jack" 6) b
  | _ -> Alcotest.fail "a3 must be a net delete")

let test_net_changes_other_table_ignored () =
  let log = scripted_log () in
  let changes, stats = Recovery.net_changes log ~table:"dept" ~since:Wal.start_lsn in
  checki "none" 0 (List.length changes);
  checki "none relevant" 0 stats.Recovery.relevant;
  checkb "but the whole log was scanned (the paper's point)" true
    (stats.Recovery.records_scanned = Wal.record_count log)

let test_net_changes_address_order () =
  let log = Wal.create () in
  let app r = ignore (Wal.append log r) in
  app (Record.Begin { txn = 1 });
  app (Record.Insert { txn = 1; table = "t"; addr = a3; tuple = emp "z" 1 });
  app (Record.Insert { txn = 1; table = "t"; addr = a1; tuple = emp "a" 1 });
  app (Record.Commit { txn = 1 });
  let changes, _ = Recovery.net_changes log ~table:"t" ~since:Wal.start_lsn in
  Alcotest.(check (list int)) "sorted by address" [ a1; a3 ] (List.map fst changes)

(* Regression: when [since] predates the truncation point, the scan starts
   at [oldest_retained], and [bytes_scanned] must reflect the bytes actually
   iterated — not [end_lsn - since], which overcounts (and can even go
   negative when [since] exceeds [end_lsn]). *)
let test_net_changes_clamped_after_truncation () =
  let log = scripted_log () in
  let cut =
    Wal.fold_from log Wal.start_lsn ~init:None ~f:(fun acc lsn r ->
        match (acc, r) with
        | None, Record.Begin { txn = 3 } -> Some lsn
        | acc, _ -> acc)
    |> Option.get
  in
  truncate log cut;
  (* since = start_lsn is now below retention; the scan must clamp up. *)
  let changes, stats = Recovery.net_changes log ~table:"emp" ~since:Wal.start_lsn in
  checki "bytes = retained window" (Wal.end_lsn log - Wal.oldest_retained log)
    stats.Recovery.bytes_scanned;
  checki "records = retained suffix" (Wal.record_count log) stats.Recovery.records_scanned;
  (* t3's changes are all that is visible. *)
  (match List.assoc_opt a1 changes with
  | Some { Recovery.after = Some t; _ } -> Alcotest.check tuple "a1 updated" (emp "Bruce" 16) t
  | _ -> Alcotest.fail "a1 present");
  (* since beyond the log end clamps down: empty scan, never negative. *)
  let changes2, stats2 =
    Recovery.net_changes log ~table:"emp" ~since:(Wal.end_lsn log + 100)
  in
  checki "no changes past the end" 0 (List.length changes2);
  checki "no bytes past the end" 0 stats2.Recovery.bytes_scanned;
  checkb "never negative" true (stats2.Recovery.bytes_scanned >= 0)

let test_truncation () =
  with_tmp_wal @@ fun path ->
  let log = Wal.create ~backend:(Wal.File path) () in
  let lsns = List.map (Wal.append log) sample_records in
  let cut = List.nth lsns 3 in
  truncate log cut;
  checki "oldest moved" cut (Wal.oldest_retained log);
  checki "count shrank" (List.length sample_records - 3) (Wal.record_count log);
  (* Retained records keep their LSNs and contents. *)
  let r, _ = Wal.read log cut in
  checkb "boundary record intact" true (r = List.nth sample_records 3);
  let suffix = List.map snd (Wal.to_list log) in
  checkb "suffix preserved" true
    (suffix = List.filteri (fun i _ -> i >= 3) sample_records);
  (* Reading below the truncation point fails. *)
  Alcotest.check_raises "below retention" (Failure "Wal.read: bad LSN") (fun () ->
      ignore (Wal.read log (List.nth lsns 1)));
  (* Truncating at a non-boundary fails. *)
  Alcotest.check_raises "mid-record" (Failure "Wal.truncate_before: LSN is not a record boundary")
    (fun () -> truncate log (cut + 1));
  (* Appending continues with monotone LSNs; reopening the segment keeps
     the base. *)
  let next = Wal.append log (Record.Begin { txn = 99 }) in
  checkb "monotone" true (next > cut);
  Wal.close log;
  let log2 = Wal.open_file path in
  checki "base persisted" cut (Wal.oldest_retained log2);
  checkb "contents persisted" true (Wal.to_list log = Wal.to_list log2);
  Wal.close log2

let test_redo_after_truncation_replays_suffix () =
  let log = scripted_log () in
  (* Find t3's Begin and truncate everything before it. *)
  let cut =
    Wal.fold_from log Wal.start_lsn ~init:None ~f:(fun acc lsn r ->
        match (acc, r) with
        | None, Record.Begin { txn = 3 } -> Some lsn
        | acc, _ -> acc)
    |> Option.get
  in
  truncate log cut;
  (* Redo onto a heap restored "from a checkpoint": t1's committed state. *)
  let heap = Heap.create ~page_size:512 schema in
  Heap.insert_at heap a1 (emp "Bruce" 15);
  Heap.insert_at heap a2 (emp "Laura" 6);
  Heap.insert_at heap a3 (emp "Jack" 6);
  Recovery.redo log (function "emp" -> Some heap | _ -> None);
  Alcotest.check (Alcotest.option tuple) "t3 update replayed" (Some (emp "Bruce" 16))
    (Heap.get heap a1);
  checkb "t3 delete replayed" true (Heap.get heap a3 = None)

(* ---- file backend: segment framing, torn tails, group commit -------- *)

module Gen = QCheck2.Gen

(* Keep only the first [keep] bytes of a file — the crash scissors. *)
let shear_file path keep =
  let ic = open_in_bin path in
  let b =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (min keep (in_channel_length ic)))
  in
  let oc = open_out_bin path in
  output_string oc b;
  close_out oc

let test_file_backend_roundtrip_and_reopen () =
  with_tmp_wal (fun path ->
      let log = Wal.create ~backend:(Wal.File path) ~group_commit_window:2 () in
      List.iter (fun r -> ignore (Wal.append log r : Wal.lsn)) sample_records;
      Wal.sync log;
      checkb "fsyncs happened" true (Wal.fsyncs log > 0);
      Wal.close log;
      let log2 = Wal.open_file path in
      checki "count" (List.length sample_records) (Wal.record_count log2);
      checkb "contents identical" true (Wal.to_list log = Wal.to_list log2);
      (* Appending after reopen continues the log at the same LSN. *)
      let l = Wal.append log2 (Record.Begin { txn = 42 }) in
      checki "monotone lsn" (Wal.end_lsn log) l;
      Wal.sync log2;
      Wal.close log2;
      let log3 = Wal.open_file path in
      checki "reopened count" (List.length sample_records + 1) (Wal.record_count log3);
      Wal.close log3)

let test_torn_tail_recovers_prefix () =
  with_tmp_wal (fun path ->
      let log = Wal.create ~backend:(Wal.File path) () in
      List.iter (fun r -> ignore (Wal.append log r : Wal.lsn)) sample_records;
      Wal.sync log;
      Wal.close log;
      (* Tear the file mid-record: the last frame loses its final bytes. *)
      let size = (Unix.stat path).Unix.st_size in
      shear_file path (size - 3);
      let log2 = Wal.open_file path in
      checki "exactly the torn record lost" (List.length sample_records - 1)
        (Wal.record_count log2);
      let expect =
        List.filteri (fun i _ -> i < List.length sample_records - 1) sample_records
      in
      checkb "valid prefix recovered" true (List.map snd (Wal.to_list log2) = expect);
      (* The tail was trimmed from the file, so appends resume cleanly. *)
      ignore (Wal.append log2 (Record.Commit { txn = 7 }) : Wal.lsn);
      Wal.sync log2;
      Wal.close log2;
      let log3 = Wal.open_file path in
      checkb "resumed log reopens intact" true
        (List.map snd (Wal.to_list log3) = expect @ [ Record.Commit { txn = 7 } ]);
      Wal.close log3)

let test_corrupt_frame_truncates () =
  with_tmp_wal (fun path ->
      let log = Wal.create ~backend:(Wal.File path) () in
      let lsns = List.map (Wal.append log) sample_records in
      ignore lsns;
      Wal.sync log;
      Wal.close log;
      (* Flip a byte inside the third frame's payload: checksum must catch
         it and recovery stops at the second record. *)
      let ic = open_in_bin path in
      let img = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string img in
      (* frames start at 16; frame = 8-byte header + payload *)
      let frame1_len = Int32.to_int (Bytes.get_int32_le b 16) in
      let frame2_off = 16 + 8 + frame1_len in
      let frame2_len = Int32.to_int (Bytes.get_int32_le b frame2_off) in
      let frame3_off = frame2_off + 8 + frame2_len in
      let victim = frame3_off + 8 in
      Bytes.set b victim (Char.chr (Char.code (Bytes.get b victim) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let log2 = Wal.open_file path in
      checki "stops at the corrupt frame" 2 (Wal.record_count log2);
      checkb "prefix intact" true
        (List.map snd (Wal.to_list log2)
        = List.filteri (fun i _ -> i < 2) sample_records);
      Wal.close log2)

let test_group_commit_batches_commits () =
  with_tmp_wal (fun path ->
      let log = Wal.create ~backend:(Wal.File path) ~group_commit_window:4 () in
      (* Four concurrent transactions interleaved; their four commits
         arrive back-to-back and share ONE fsync. *)
      for txn = 1 to 4 do
        ignore (Wal.append log (Record.Begin { txn }) : Wal.lsn);
        ignore
          (Wal.append log
             (Record.Insert
                { txn; table = "emp"; addr = Addr.make ~page:1 ~slot:txn; tuple = emp "e" txn })
            : Wal.lsn)
      done;
      checki "no fsync before any commit" 0 (Wal.fsyncs log);
      for txn = 1 to 4 do
        ignore (Wal.append log (Record.Commit { txn }) : Wal.lsn)
      done;
      checki "four commits share one fsync" 1 (Wal.fsyncs log);
      (* A partial batch rides until an explicit sync. *)
      ignore (Wal.append log (Record.Begin { txn = 5 }) : Wal.lsn);
      ignore (Wal.append log (Record.Commit { txn = 5 }) : Wal.lsn);
      checki "partial batch not yet synced" 1 (Wal.fsyncs log);
      Wal.sync log;
      checki "sync closes the partial batch" 2 (Wal.fsyncs log);
      Wal.sync log;
      checki "idle sync is free" 2 (Wal.fsyncs log);
      Wal.close log)

(* Satellite regression: after truncation, a table whose records were all
   discarded must yield a CLAMPED (scannable) last_lsn_for, not a dangling
   LSN below the base that makes iter_from raise. *)
let test_truncate_then_last_lsn_for () =
  let log = Wal.create () in
  let app r = Wal.append log r in
  ignore (app (Record.Begin { txn = 1 }) : Wal.lsn);
  ignore (app (Record.Insert { txn = 1; table = "dept"; addr = a1; tuple = emp "d" 1 }) : Wal.lsn);
  ignore (app (Record.Commit { txn = 1 }) : Wal.lsn);
  let cut = app (Record.Begin { txn = 2 }) in
  ignore (app (Record.Insert { txn = 2; table = "emp"; addr = a2; tuple = emp "e" 2 }) : Wal.lsn);
  ignore (app (Record.Commit { txn = 2 }) : Wal.lsn);
  truncate log cut;
  (match Wal.last_lsn_for log ~table:"dept" with
  | None -> Alcotest.fail "dept entry lost"
  | Some l ->
    checki "stale entry clamped to the new base" (Wal.oldest_retained log) l;
    (* Regression: this raised "Wal.iter_from: bad LSN" before the clamp. *)
    let dept_records = ref 0 in
    Wal.iter_from log l (fun _ r ->
        if Record.table_of r = Some "dept" then incr dept_records);
    checki "conservative scan finds no dept records" 0 !dept_records);
  (match Wal.last_lsn_for log ~table:"emp" with
  | Some l -> checkb "live entry untouched" true (l > cut)
  | None -> Alcotest.fail "emp entry lost");
  (* Truncating everything clamps every entry to end_lsn (= new base). *)
  truncate log (Wal.end_lsn log);
  let l = Option.get (Wal.last_lsn_for log ~table:"emp") in
  checki "clamped to empty-log base" (Wal.oldest_retained log) l;
  Wal.iter_from log l (fun _ _ -> ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Review regression: the truncation rewrite must be crash-atomic.  The
   old implementation overwrote the live segment in place, so a crash
   mid-rewrite left new frames mixed with stale old bytes, and reopen's
   torn-tail scan silently dropped fsync-durable records at the mix
   point.  With the temp-file + rename protocol the only crash states are
   "complete old segment (+ leftover temp)" and "complete new segment" —
   both recover without losing a single durable record. *)
let test_truncate_crash_atomicity () =
  with_tmp_wal (fun path ->
      let log = Wal.create ~backend:(Wal.File path) () in
      let lsns = List.map (Wal.append log) sample_records in
      Wal.sync log;
      let before = read_file path in
      let full = Wal.to_list log in
      let cut = List.nth lsns 3 in
      truncate log cut;
      let after = read_file path in
      let truncated = Wal.to_list log in
      Wal.close log;
      checkb "no temp left after a clean truncation" false
        (Sys.file_exists (path ^ ".tmp"));
      (* Crash state A: the rewrite died before its rename — the old
         segment is untouched, a partial temp sits beside it. *)
      write_file path before;
      write_file (path ^ ".tmp") (String.sub after 0 (String.length after / 2));
      let a = Wal.open_file path in
      checkb "pre-rename crash: every durable record survives" true
        (Wal.to_list a = full);
      Wal.close a;
      checkb "stale temp discarded on reopen" false (Sys.file_exists (path ^ ".tmp"));
      (* Crash state B: the rename committed — the new segment is whole. *)
      write_file path after;
      let b = Wal.open_file path in
      checkb "post-rename crash: exactly the retained suffix" true
        (Wal.to_list b = truncated);
      checki "base persisted" cut (Wal.oldest_retained b);
      Wal.close b)

(* The group-commit ack gap is observable: [durable_end_lsn] lags behind
   acknowledged commits inside a partial window and catches up on every
   fsync. *)
let test_durable_end_lsn_tracks_group_commit () =
  with_tmp_wal (fun path ->
      let log = Wal.create ~backend:(Wal.File path) ~group_commit_window:2 () in
      checki "nothing durable yet" 0 (Wal.durable_end_lsn log);
      ignore (Wal.append log (Record.Begin { txn = 1 }) : Wal.lsn);
      let c1 = Wal.append log (Record.Commit { txn = 1 }) in
      checkb "acknowledged commit not yet durable" true (Wal.durable_end_lsn log <= c1);
      ignore (Wal.append log (Record.Begin { txn = 2 }) : Wal.lsn);
      ignore (Wal.append log (Record.Commit { txn = 2 }) : Wal.lsn);
      checki "window fsync catches the horizon up" (Wal.end_lsn log)
        (Wal.durable_end_lsn log);
      ignore (Wal.append log (Record.Begin { txn = 3 }) : Wal.lsn);
      let c3 = Wal.append log (Record.Commit { txn = 3 }) in
      checkb "partial window lags again" true (Wal.durable_end_lsn log <= c3);
      Wal.sync log;
      checki "sync forces durability" (Wal.end_lsn log) (Wal.durable_end_lsn log);
      Wal.close log;
      let log2 = Wal.open_file path in
      checki "the recovered image is the horizon" (Wal.end_lsn log2)
        (Wal.durable_end_lsn log2);
      Wal.close log2)

(* A segment written under the FNV-1a checksum rule carries the magic
   WALSEG01.  Its frames would fail the current checksum at the first
   record and reopen as an empty valid prefix, losing the log silently;
   the magic refuses it instead, and leaves the file as it was. *)
let test_old_segment_magic_refused () =
  with_tmp_wal (fun path ->
      let log = Wal.create ~backend:(Wal.File path) () in
      List.iter (fun r -> ignore (Wal.append log r : Wal.lsn)) sample_records;
      Wal.close log;
      let b = Bytes.of_string (read_file path) in
      Bytes.blit_string "WALSEG01" 0 b 0 8;
      let old = Bytes.to_string b in
      write_file path old;
      Alcotest.check_raises "old magic" (Failure "Wal.open_file: bad segment magic") (fun () ->
          ignore (Wal.open_file path : Wal.t));
      checkb "the refused segment is untouched" true (read_file path = old))

(* Property: the file backend is byte-for-byte equivalent to the in-memory
   WAL — same appends give the same log, net changes, and redo result,
   including across truncation and close/reopen. *)
let file_record_gen =
  let addr_gen =
    Gen.map2 (fun p s -> Addr.make ~page:p ~slot:s) (Gen.int_range 1 2) (Gen.int_range 0 3)
  in
  Gen.frequency
    [
      (2, Gen.map (fun txn -> Record.Begin { txn }) (Gen.int_range 1 5));
      (3, Gen.map (fun txn -> Record.Commit { txn }) (Gen.int_range 1 5));
      (1, Gen.map (fun txn -> Record.Abort { txn }) (Gen.int_range 1 5));
      ( 3,
        Gen.map3
          (fun txn addr s -> Record.Insert { txn; table = "emp"; addr; tuple = emp "i" s })
          (Gen.int_range 1 5) addr_gen (Gen.int_range 0 99) );
      ( 2,
        Gen.map3
          (fun txn addr s -> Record.Delete { txn; table = "emp"; addr; old_tuple = emp "d" s })
          (Gen.int_range 1 5) addr_gen (Gen.int_range 0 99) );
      ( 2,
        Gen.map3
          (fun txn addr s ->
            Record.Update
              { txn; table = "emp"; addr; old_tuple = emp "u" s; new_tuple = emp "u" (s + 1) })
          (Gen.int_range 1 5) addr_gen (Gen.int_range 0 99) );
    ]

let prop_file_backend_equals_memory =
  QCheck2.Test.make ~name:"file backend round-trips the in-memory WAL" ~count:60
    (Gen.pair (Gen.list_size (Gen.int_range 1 40) file_record_gen) (Gen.int_range 0 1000))
    (fun (records, cutpick) ->
      with_tmp_wal (fun path ->
          let mem = Wal.create () in
          let file = Wal.create ~backend:(Wal.File path) ~group_commit_window:3 () in
          List.iter
            (fun r ->
              ignore (Wal.append mem r : Wal.lsn);
              ignore (Wal.append file r : Wal.lsn))
            records;
          let same a b = Wal.to_list a = Wal.to_list b in
          let replay log =
            let heap = Heap.create ~page_size:512 schema in
            Recovery.redo log (function "emp" -> Some heap | _ -> None);
            Heap.to_list heap
          in
          let nets log = fst (Recovery.net_changes log ~table:"emp" ~since:Wal.start_lsn) in
          if not (same mem file) then QCheck2.Test.fail_report "append divergence";
          if nets mem <> nets file then QCheck2.Test.fail_report "net_changes divergence";
          if replay mem <> replay file then QCheck2.Test.fail_report "redo divergence";
          (* Truncate both at the same random record boundary. *)
          let boundaries = List.map fst (Wal.to_list mem) @ [ Wal.end_lsn mem ] in
          let cut = List.nth boundaries (cutpick mod List.length boundaries) in
          truncate mem cut;
          truncate file cut;
          if not (same mem file) then QCheck2.Test.fail_report "truncation divergence";
          (* Close and reopen the segment: still identical. *)
          Wal.close file;
          let file2 = Wal.open_file path in
          let ok = same mem file2 && replay mem = replay file2 in
          if not ok then QCheck2.Test.fail_report "reopen divergence";
          Wal.close file2;
          true))

(* Torture property for the truncation crash window: crash at a random
   byte of the rewrite.  Before the rename commits, any prefix of the
   temp may be on disk next to the intact old segment; after it, the new
   segment is complete.  In every state, reopen must yield the full old
   log or the exact truncated log — never fewer records. *)
let prop_truncate_crash_keeps_durable_records =
  QCheck2.Test.make ~name:"crash anywhere in truncation loses no durable record"
    ~count:40
    (Gen.triple
       (Gen.list_size (Gen.int_range 1 30) file_record_gen)
       (Gen.int_range 0 1000) (Gen.int_range 0 1000))
    (fun (records, cutpick, crashpick) ->
      with_tmp_wal (fun path ->
          let log = Wal.create ~backend:(Wal.File path) ~group_commit_window:2 () in
          List.iter (fun r -> ignore (Wal.append log r : Wal.lsn)) records;
          Wal.sync log;
          let before = read_file path in
          let full = Wal.to_list log in
          let boundaries = List.map fst full @ [ Wal.end_lsn log ] in
          let cut = List.nth boundaries (cutpick mod List.length boundaries) in
          truncate log cut;
          let after = read_file path in
          let truncated = Wal.to_list log in
          Wal.close log;
          let tmp = path ^ ".tmp" in
          (* Pre-rename crash: old segment + the first [k] temp bytes. *)
          let k = crashpick mod (String.length after + 1) in
          write_file path before;
          write_file tmp (String.sub after 0 k);
          let a = Wal.open_file path in
          let ok_a = Wal.to_list a = full in
          Wal.close a;
          (* Post-rename crash: the new segment alone. *)
          (try Sys.remove tmp with Sys_error _ -> ());
          write_file path after;
          let b = Wal.open_file path in
          let ok_b = Wal.to_list b = truncated in
          Wal.close b;
          if not ok_a then
            QCheck2.Test.fail_report "pre-rename crash dropped durable records";
          if not ok_b then
            QCheck2.Test.fail_report "post-rename crash diverges from truncation";
          true))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_file_backend_equals_memory; prop_truncate_crash_keeps_durable_records ]
  @ [
    Alcotest.test_case "truncation rewrite is crash-atomic" `Quick
      test_truncate_crash_atomicity;
    Alcotest.test_case "durable_end_lsn tracks group commit" `Quick
      test_durable_end_lsn_tracks_group_commit;
    Alcotest.test_case "file backend roundtrip+reopen" `Quick
      test_file_backend_roundtrip_and_reopen;
    Alcotest.test_case "torn tail recovers prefix" `Quick test_torn_tail_recovers_prefix;
    Alcotest.test_case "corrupt frame truncates" `Quick test_corrupt_frame_truncates;
    Alcotest.test_case "segment under the old magic is refused" `Quick
      test_old_segment_magic_refused;
    Alcotest.test_case "group commit batches commits" `Quick test_group_commit_batches_commits;
    Alcotest.test_case "truncate clamps last_lsn_for" `Quick test_truncate_then_last_lsn_for;
    Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "wal truncation" `Quick test_truncation;
    Alcotest.test_case "redo after truncation" `Quick test_redo_after_truncation_replays_suffix;
    Alcotest.test_case "record metadata" `Quick test_record_metadata;
    Alcotest.test_case "wal append/iter" `Quick test_wal_append_iter;
    Alcotest.test_case "wal read exact" `Quick test_wal_read_exact;
    Alcotest.test_case "redo committed state" `Quick test_redo_rebuilds_committed_state;
    Alcotest.test_case "redo unresolved tables" `Quick test_redo_skips_unresolved_tables;
    Alcotest.test_case "net changes full window" `Quick test_net_changes_full_window;
    Alcotest.test_case "net changes mid log" `Quick test_net_changes_since_mid_log;
    Alcotest.test_case "net changes other table" `Quick test_net_changes_other_table_ignored;
    Alcotest.test_case "net changes ordered" `Quick test_net_changes_address_order;
    Alcotest.test_case "net changes clamp after truncation" `Quick
      test_net_changes_clamped_after_truncation;
  ]
