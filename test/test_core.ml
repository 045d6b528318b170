(* Core tests: annotations, refresh messages, base-table maintenance
   (eager and deferred), the fix-up pass, and the differential refresh
   scan, including the paper's worked example (Figures 5 and 6) as a
   golden test. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let tuple = Alcotest.testable Tuple.pp Tuple.equal
let msg = Alcotest.testable Refresh_msg.pp Refresh_msg.equal

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

let sal_lt10 t = salary t < 10

(* ------------------------------------------------------------------ *)
(* Annotations *)

let test_annotations_schema () =
  let ext = Annotations.extend_schema emp_schema in
  checki "arity" 4 (Schema.arity ext);
  checkb "annotated" true (Annotations.is_annotated ext);
  checkb "plain is not" false (Annotations.is_annotated emp_schema);
  checkb "strip inverse" true (Schema.equal (Annotations.strip_schema ext) emp_schema);
  Alcotest.check_raises "double extend"
    (Invalid_argument "Annotations.extend_schema: schema already annotated") (fun () ->
      ignore (Annotations.extend_schema ext))

let test_annotations_tuple_roundtrip () =
  let user = emp "Bruce" 15 in
  let ann = { Annotations.prev_addr = Some 42; timestamp = None } in
  let stored = Annotations.annotate user ann in
  let user', ann' = Annotations.split stored in
  Alcotest.check tuple "user part" user user';
  checkb "annotations" true (ann = ann');
  let restamped =
    Annotations.with_annotations stored { Annotations.prev_addr = None; timestamp = Some 7 }
  in
  checkb "replace" true
    (snd (Annotations.split restamped) = { Annotations.prev_addr = None; timestamp = Some 7 });
  Alcotest.check tuple "user preserved" user (Annotations.user_part restamped)

(* ------------------------------------------------------------------ *)
(* Refresh message codec *)

let test_refresh_msg_roundtrip () =
  let msgs =
    [
      Refresh_msg.Entry { addr = 65538; prev_qual = 0; row = Row.of_tuple (emp "Laura" 6) };
      Refresh_msg.Tail { last_qual = 131072 };
      Refresh_msg.Region { lo = 3; hi = 900 };
      Refresh_msg.Upsert { addr = 5; row = Row.of_tuple (emp "Mohan" 9) };
      Refresh_msg.Remove { addr = 7 };
      Refresh_msg.Clear;
      Refresh_msg.Snaptime 430;
    ]
  in
  List.iter
    (fun m -> Alcotest.check msg "roundtrip" m (Refresh_msg.decode (Refresh_msg.encode m)))
    msgs;
  checkb "data classification" true
    (List.map Refresh_msg.is_data msgs = [ true; true; true; true; true; false; false ])

(* ------------------------------------------------------------------ *)
(* Base table: deferred maintenance *)

let mk_base ?(mode = Base_table.Deferred) ?wal () =
  let clock = Clock.create () in
  (Base_table.create ~mode ?wal ~name:"emp" ~clock emp_schema, clock)

let ann_of base addr = Option.get (Base_table.get_annotations base addr)

let test_deferred_insert_nulls () =
  let base, _ = mk_base () in
  let a = Base_table.insert base (emp "Laura" 6) in
  checkb "both NULL" true (ann_of base a = Annotations.nulls);
  Alcotest.check (Alcotest.option tuple) "user view" (Some (emp "Laura" 6))
    (Base_table.get base a)

let test_deferred_update_nulls_timestamp () =
  let base, clock = mk_base () in
  let a = Base_table.insert base (emp "Hamid" 9) in
  (* Pretend a fix-up stamped it. *)
  Base_table.set_stored base a
    (Annotations.annotate (emp "Hamid" 9) { Annotations.prev_addr = Some 0; timestamp = Some 5 });
  Clock.advance_to clock 5;
  Base_table.update base a (emp "Hamid" 15);
  let ann = ann_of base a in
  checkb "prevaddr kept" true (ann.Annotations.prev_addr = Some 0);
  checkb "timestamp NULLed" true (ann.Annotations.timestamp = None)

let test_deferred_ops_do_not_touch_clock () =
  let base, clock = mk_base () in
  let a = Base_table.insert base (emp "x" 1) in
  Base_table.update base a (emp "x" 2);
  Base_table.delete base a;
  checki "clock untouched" Clock.never (Clock.now clock)

(* ------------------------------------------------------------------ *)
(* Base table: eager maintenance *)

let test_eager_insert_chains () =
  let base, _ = mk_base ~mode:Base_table.Eager () in
  let a1 = Base_table.insert base (emp "Bruce" 15) in
  let a2 = Base_table.insert base (emp "Hamid" 9) in
  let a3 = Base_table.insert base (emp "Paul" 8) in
  checkb "first points at 0" true ((ann_of base a1).Annotations.prev_addr = Some Addr.zero);
  checkb "chain" true ((ann_of base a2).Annotations.prev_addr = Some a1);
  checkb "chain" true ((ann_of base a3).Annotations.prev_addr = Some a2);
  checkb "timestamps set" true
    (List.for_all
       (fun a -> (ann_of base a).Annotations.timestamp <> None)
       [ a1; a2; a3 ])

let test_eager_delete_repoints_successor () =
  let base, clock = mk_base ~mode:Base_table.Eager () in
  let a1 = Base_table.insert base (emp "a" 1) in
  let a2 = Base_table.insert base (emp "b" 2) in
  let a3 = Base_table.insert base (emp "c" 3) in
  let ts3_before = (ann_of base a3).Annotations.timestamp in
  let now_before = Clock.now clock in
  Base_table.delete base a2;
  let ann3 = ann_of base a3 in
  checkb "successor repointed" true (ann3.Annotations.prev_addr = Some a1);
  checkb "successor stamped" true
    (match ann3.Annotations.timestamp with
    | Some ts -> ts > now_before && Some ts <> ts3_before
    | None -> false)

let test_eager_delete_last_entry_leaves_no_trace () =
  let base, _ = mk_base ~mode:Base_table.Eager () in
  let a1 = Base_table.insert base (emp "a" 1) in
  let a2 = Base_table.insert base (emp "b" 2) in
  let ann1_before = ann_of base a1 in
  Base_table.delete base a2;
  checkb "predecessor untouched (the tail problem)" true (ann_of base a1 = ann1_before)

let test_eager_insert_into_gap () =
  let base, _ = mk_base ~mode:Base_table.Eager () in
  let a1 = Base_table.insert base (emp "a" 1) in
  let a2 = Base_table.insert base (emp "b" 2) in
  let a3 = Base_table.insert base (emp "c" 3) in
  ignore a1;
  Base_table.delete base a2;
  (* Reuses a2's address: new entry inherits successor's prev pointer and
     the successor now points at the new entry. *)
  let a2' = Base_table.insert base (emp "B" 2) in
  checkb "address reused" true (Addr.equal a2 a2');
  checkb "new entry inherits prev" true ((ann_of base a2').Annotations.prev_addr = Some a1);
  checkb "successor repointed" true ((ann_of base a3).Annotations.prev_addr = Some a2')

let test_mutation_counter () =
  let base, _ = mk_base () in
  let a = Base_table.insert base (emp "a" 1) in
  Base_table.update base a (emp "a" 2);
  Base_table.delete base a;
  checki "three mutations" 3 (Base_table.mutations base)

let test_observers_see_user_tuples () =
  let base, _ = mk_base () in
  let seen = ref [] in
  ignore (Base_table.subscribe base (fun c -> seen := c :: !seen) : Base_table.subscription);
  let a = Base_table.insert base (emp "a" 1) in
  Base_table.update base a (emp "a" 2);
  Base_table.delete base a;
  match List.rev !seen with
  | [ Snapdiff_changelog.Change_log.Insert (ia, iv);
      Snapdiff_changelog.Change_log.Update (ua, uo, un);
      Snapdiff_changelog.Change_log.Delete (da, dv) ] ->
    checkb "insert" true (ia = a && Tuple.equal iv (emp "a" 1));
    checkb "update" true (ua = a && Tuple.equal uo (emp "a" 1) && Tuple.equal un (emp "a" 2));
    checkb "delete" true (da = a && Tuple.equal dv (emp "a" 2))
  | _ -> Alcotest.fail "unexpected change stream"

let test_wal_records_written () =
  let wal = Snapdiff_wal.Wal.create () in
  let base, _ = mk_base ~wal () in
  let a = Base_table.insert base (emp "a" 1) in
  Base_table.update base a (emp "a" 2);
  Base_table.delete base a;
  (* Three ops, each bracketed Begin/Commit. *)
  checki "nine records" 9 (Snapdiff_wal.Wal.record_count wal)

(* ------------------------------------------------------------------ *)
(* Fix-up (Figure 7) *)

let stored_ann base =
  List.map (fun (addr, _) -> (addr, ann_of base addr)) (Base_table.to_user_list base)

let run_fixup base = Fixup.run base ~fixup_time:(Clock.tick (Base_table.clock base))

let test_fixup_fresh_table () =
  let base, _ = mk_base () in
  let a1 = Base_table.insert base (emp "a" 1) in
  let a2 = Base_table.insert base (emp "b" 2) in
  let a3 = Base_table.insert base (emp "c" 3) in
  let stats = run_fixup base in
  checki "all rewritten" 3 stats.Fixup.writes;
  let anns = stored_ann base in
  checkb "chain restored" true
    (List.map (fun (_, ann) -> ann.Annotations.prev_addr) anns
    = [ Some Addr.zero; Some a1; Some a2 ]);
  checkb "stamped" true
    (List.for_all (fun (_, ann) -> ann.Annotations.timestamp <> None) anns);
  ignore a3

let test_fixup_idempotent () =
  let base, _ = mk_base () in
  for i = 0 to 9 do
    ignore (Base_table.insert base (emp (Printf.sprintf "e%d" i) i) : Addr.t)
  done;
  ignore (run_fixup base : Fixup.stats);
  let again = run_fixup base in
  checki "second pass writes nothing" 0 again.Fixup.writes

let test_fixup_detects_update () =
  let base, _ = mk_base () in
  let a = Base_table.insert base (emp "x" 1) in
  ignore (run_fixup base : Fixup.stats);
  Base_table.update base a (emp "x" 2);
  checkb "ts NULL before" true ((ann_of base a).Annotations.timestamp = None);
  let stats = run_fixup base in
  checki "one write" 1 stats.Fixup.writes;
  checkb "restamped" true ((ann_of base a).Annotations.timestamp <> None)

let test_fixup_detects_deletion_anomaly () =
  let base, _ = mk_base () in
  let _a1 = Base_table.insert base (emp "a" 1) in
  let a2 = Base_table.insert base (emp "b" 2) in
  let a3 = Base_table.insert base (emp "c" 3) in
  ignore (run_fixup base : Fixup.stats);
  let ts_before = (ann_of base a3).Annotations.timestamp in
  Base_table.delete base a2;
  let stats = run_fixup base in
  checki "successor rewritten" 1 stats.Fixup.writes;
  let ann3 = ann_of base a3 in
  checkb "repointed" true (ann3.Annotations.prev_addr = Some _a1);
  checkb "restamped" true (ann3.Annotations.timestamp <> ts_before)

let test_fixup_insert_before_existing_no_stamp () =
  let base, _ = mk_base () in
  let a1 = Base_table.insert base (emp "a" 1) in
  let a2 = Base_table.insert base (emp "b" 2) in
  let a3 = Base_table.insert base (emp "c" 3) in
  ignore a1;
  ignore (run_fixup base : Fixup.stats);
  Base_table.delete base a2;
  ignore (run_fixup base : Fixup.stats);
  let ts3 = (ann_of base a3).Annotations.timestamp in
  (* Insert into the gap: at the next fixup a3's PrevAddr must repoint to
     the new entry WITHOUT restamping (insertions carry their own stamp). *)
  let a2' = Base_table.insert base (emp "B" 2) in
  let stats = run_fixup base in
  checki "two writes (new entry + repoint)" 2 stats.Fixup.writes;
  let ann3 = ann_of base a3 in
  checkb "repointed to insert" true (ann3.Annotations.prev_addr = Some a2');
  checkb "NOT restamped" true (ann3.Annotations.timestamp = ts3)

let test_fixup_step_pseudocode_cases () =
  (* Direct checks of the Figure 7 state machine, on raw fields. *)
  let t = 100 in
  let null = Annotations.null in
  let at ~expect_prev ~last_addr =
    let c = Fixup.chain ~fixup_time:t in
    c.Fixup.expect_prev <- expect_prev;
    c.Fixup.last_addr <- last_addr;
    c
  in
  (* Inserted entry. *)
  let c = at ~expect_prev:3 ~last_addr:5 in
  checkb "inserted: written" true (Fixup.step c ~addr:9 ~prev:null ~ts:null);
  checki "inserted: points at last_addr" 5 c.Fixup.prev;
  checki "inserted: stamped" t c.Fixup.ts;
  checki "inserted: expect_prev unchanged" 3 c.Fixup.expect_prev;
  checki "inserted: last_addr advanced" 9 c.Fixup.last_addr;
  (* Clean entry. *)
  let c = at ~expect_prev:5 ~last_addr:5 in
  checkb "clean: untouched" false (Fixup.step c ~addr:9 ~prev:5 ~ts:7);
  checkb "clean: fields kept" true (c.Fixup.prev = 5 && c.Fixup.ts = 7);
  checki "clean: expect_prev = addr" 9 c.Fixup.expect_prev;
  (* Updated entry. *)
  let c = at ~expect_prev:5 ~last_addr:5 in
  checkb "updated: written" true (Fixup.step c ~addr:9 ~prev:5 ~ts:null);
  checkb "updated: stamped only" true (c.Fixup.prev = 5 && c.Fixup.ts = t);
  (* Deletion anomaly. *)
  let c = at ~expect_prev:5 ~last_addr:5 in
  checkb "deletion: written" true (Fixup.step c ~addr:9 ~prev:4 ~ts:7);
  checkb "deletion: repointed + stamped" true (c.Fixup.prev = 5 && c.Fixup.ts = t);
  checki "deletion: expect_prev = addr" 9 c.Fixup.expect_prev;
  (* Insertions before current entry: prev = expect_prev but <> last_addr. *)
  let c = at ~expect_prev:5 ~last_addr:8 in
  checkb "insert-before: written" true (Fixup.step c ~addr:9 ~prev:5 ~ts:7);
  checkb "insert-before: repointed, NOT stamped" true (c.Fixup.prev = 8 && c.Fixup.ts = 7)

(* ------------------------------------------------------------------ *)
(* Differential refresh: the paper's worked example (Figures 5-6). *)

(* Build the paper's story on a deferred-mode table:
   initial employees Bruce 15, Hamid 9, Jack 6, Mohan 9, Paul 8, Bob 8;
   fix up; snapshot of salary < 10; then: Hamid gets a raise to 15,
   Jack and Bob are deleted, Laura 6 is hired (reusing Jack's address);
   refresh differentially. *)
let paper_story () =
  let base, _ = mk_base () in
  let a_bruce = Base_table.insert base (emp "Bruce" 15) in
  let a_hamid = Base_table.insert base (emp "Hamid" 9) in
  let a_jack = Base_table.insert base (emp "Jack" 6) in
  let a_mohan = Base_table.insert base (emp "Mohan" 9) in
  let a_paul = Base_table.insert base (emp "Paul" 8) in
  let a_bob = Base_table.insert base (emp "Bob" 8) in
  ignore (run_fixup base : Fixup.stats);
  (base, a_bruce, a_hamid, a_jack, a_mohan, a_paul, a_bob)

let collect_refresh ?tail_suppression base snaptime =
  let msgs = ref [] in
  let report =
    Differential.refresh ?tail_suppression ~base ~snaptime ~restrict:(Annotations.user_pred sal_lt10)
      ~xmit:(fun m -> msgs := m :: !msgs)
      ()
  in
  (List.rev !msgs, report)

let test_paper_example_messages () =
  let base, _a_bruce, a_hamid, a_jack, a_mohan, a_paul, a_bob = paper_story () in
  let snaptime = Clock.now (Base_table.clock base) in
  (* The changes since the snapshot. *)
  Base_table.update base a_hamid (emp "Hamid" 15);
  Base_table.delete base a_jack;
  Base_table.delete base a_bob;
  let a_laura = Base_table.insert base (emp "Laura" 6) in
  checkb "Laura reuses Jack's address" true (Addr.equal a_laura a_jack);
  let msgs, report = collect_refresh base snaptime in
  (* Figure 5/6: messages (Laura, prev 0), (Mohan, prev Laura), tail. *)
  Alcotest.check (Alcotest.list msg) "exactly the paper's messages"
    [
      Refresh_msg.Entry { addr = a_laura; prev_qual = Addr.zero;
          row = Row.of_tuple (emp "Laura" 6) };
      Refresh_msg.Entry { addr = a_mohan; prev_qual = a_laura; row = Row.of_tuple (emp "Mohan" 9) };
      Refresh_msg.Tail { last_qual = a_paul };
      Refresh_msg.Snaptime report.Differential.new_snaptime;
    ]
    msgs;
  checki "three data messages" 3 report.Differential.data_messages

let test_paper_example_snapshot_state () =
  let base, _, a_hamid, a_jack, a_mohan, a_paul, a_bob = paper_story () in
  (* Snapshot site: populate fully, then apply the differential stream. *)
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  List.iter
    (fun (addr, user) ->
      if sal_lt10 user then Snapshot_table.apply snap
        (Refresh_msg.Upsert { addr; row = Row.of_tuple user }))
    (Base_table.to_user_list base);
  let snaptime = Clock.now (Base_table.clock base) in
  Snapshot_table.apply snap (Refresh_msg.Snaptime snaptime);
  checki "before: Hamid, Jack, Mohan, Paul, Bob" 5 (Snapshot_table.count snap);
  Base_table.update base a_hamid (emp "Hamid" 15);
  Base_table.delete base a_jack;
  Base_table.delete base a_bob;
  let a_laura = Base_table.insert base (emp "Laura" 6) in
  let msgs, _ = collect_refresh base snaptime in
  List.iter (Snapshot_table.apply snap) msgs;
  (* Figure 6 after-state: Laura 6, Mohan 9, Paul 8. *)
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int tuple))
    "after = Figure 6"
    [ (a_laura, emp "Laura" 6); (a_mohan, emp "Mohan" 9); (a_paul, emp "Paul" 8) ]
    (Snapshot_table.contents snap);
  checkb "snapshot consistent" true (Snapshot_table.validate snap = Ok ())

let test_paper_example_base_after_fixup () =
  let base, a_bruce, a_hamid, a_jack, a_mohan, a_paul, a_bob = paper_story () in
  let snaptime = Clock.now (Base_table.clock base) in
  Base_table.update base a_hamid (emp "Hamid" 15);
  Base_table.delete base a_jack;
  Base_table.delete base a_bob;
  let a_laura = Base_table.insert base (emp "Laura" 6) in
  let _, report = collect_refresh base snaptime in
  let t = report.Differential.new_snaptime in
  (* Figure 5 "after": every disturbed entry stamped with the fixup time,
     chain fully restored. *)
  let expect =
    [
      (a_bruce, Some Addr.zero, false);
      (a_hamid, Some a_bruce, true);
      (a_laura, Some a_hamid, true);
      (a_mohan, Some a_laura, true);
      (a_paul, Some a_mohan, false);
    ]
  in
  List.iter
    (fun (addr, prev, stamped_now) ->
      let ann = ann_of base addr in
      checkb (Printf.sprintf "prev of %d" addr) true (ann.Annotations.prev_addr = prev);
      if stamped_now then
        checkb (Printf.sprintf "ts of %d" addr) true (ann.Annotations.timestamp = Some t)
      else
        checkb (Printf.sprintf "ts of %d old" addr) true
          (match ann.Annotations.timestamp with Some ts -> ts < t | None -> false))
    expect

let test_refresh_quiescent_sends_only_tail () =
  let base, _, _, _, _, _, _ = paper_story () in
  let snaptime = Clock.now (Base_table.clock base) in
  let msgs, report = collect_refresh base snaptime in
  (* Nothing changed: just the unconditional tail + snaptime. *)
  checki "one data message" 1 report.Differential.data_messages;
  checkb "it is the tail" true
    (match msgs with Refresh_msg.Tail _ :: Refresh_msg.Snaptime _ :: [] -> true | _ -> false)

let test_tail_suppression () =
  let base, _, _, _, _, _, a_bob = paper_story () in
  let snaptime = Clock.now (Base_table.clock base) in
  (* Bob is the last (and qualified) entry; a snapshot whose high water is
     at or below him holds nothing the tail message could delete. *)
  let msgs, report = collect_refresh ~tail_suppression:(Some a_bob) base snaptime in
  checki "zero data messages" 0 report.Differential.data_messages;
  checkb "suppressed" true report.Differential.tail_suppressed;
  checkb "only snaptime" true
    (match msgs with [ Refresh_msg.Snaptime _ ] -> true | _ -> false);
  (* But a high water above the last qualified entry forces the tail. *)
  let msgs, report = collect_refresh ~tail_suppression:(Some (a_bob + 1)) base snaptime in
  checkb "not suppressed" false report.Differential.tail_suppressed;
  checkb "tail present" true
    (List.exists (function Refresh_msg.Tail _ -> true | _ -> false) msgs);
  ignore report

let test_eager_refresh_matches_deferred () =
  (* The same story on an eager table produces an equivalent snapshot. *)
  let run mode =
    let clock = Clock.create () in
    let base = Base_table.create ~mode ~name:"emp" ~clock emp_schema in
    let addrs = ref [] in
    List.iter
      (fun (n, s) -> addrs := Base_table.insert base (emp n s) :: !addrs)
      [ ("Bruce", 15); ("Hamid", 9); ("Jack", 6); ("Mohan", 9); ("Paul", 8); ("Bob", 8) ];
    (match mode with
    | Base_table.Deferred -> ignore (run_fixup base : Fixup.stats)
    | Base_table.Eager -> ());
    let find name =
      fst
        (List.find (fun (_, u) -> Tuple.get u 0 = Value.str name) (Base_table.to_user_list base))
    in
    Base_table.update base (find "Hamid") (emp "Hamid" 15);
    Base_table.delete base (find "Jack");
    Base_table.delete base (find "Bob");
    ignore (Base_table.insert base (emp "Laura" 6) : Addr.t);
    (* An empty snapshot plus a refresh with snaptime = never must equal
       the restricted base, under either maintenance mode. *)
    let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
    let msgs = ref [] in
    let _ =
      Differential.refresh ~base ~snaptime:Clock.never ~restrict:(Annotations.user_pred sal_lt10)
        ~xmit:(fun m -> msgs := m :: !msgs)
        ()
    in
    List.iter (Snapshot_table.apply snap) (List.rev !msgs);
    List.map snd (Snapshot_table.contents snap)
  in
  let deferred = run Base_table.Deferred in
  let eager = run Base_table.Eager in
  checkb "same contents" true
    (List.sort Tuple.compare deferred = List.sort Tuple.compare eager);
  checkb "matches expectation" true
    (List.sort Tuple.compare deferred
    = List.sort Tuple.compare [ emp "Laura" 6; emp "Mohan" 9; emp "Paul" 8 ])

let test_refresh_from_never_sends_everything_qualified () =
  let base, _, _, _, _, _, _ = paper_story () in
  let msgs, report = collect_refresh base Clock.never in
  (* salary < 10: Hamid, Jack, Mohan, Paul, Bob = 5 entries + tail. *)
  checki "5 entries + tail" 6 report.Differential.data_messages;
  checki "six + snaptime" 7 (List.length msgs)


(* ------------------------------------------------------------------ *)
(* The scan's record walk *)

let record_of_page pool addr =
  Buffer_pool.with_page pool (Addr.page addr) (fun page ->
      (`Clean, Option.get (Page.read page (Addr.slot addr))))

(* Rows adopted with a tolerated SQL NULL TimeStamp end [tag_int; i64
   PrevAddr][tag_null]: the annotations take 10 bytes, not 18.  The entry
   at slot 2 points at slot 1, so the low byte of its PrevAddr — the byte
   9 from the record's end, where a fixed 18-byte tail would look for
   the TimeStamp's tag — equals [tag_int].  The walk still reads both
   fields; the fix-up cannot patch such a row and rewrites it whole. *)
let test_walk_null_timestamp_tail () =
  let pool = Buffer_pool.create ~frames:8 (Page_store.in_memory ~page_size:512 ()) in
  let heap = Heap.on_pool ~fill_factor:0.5 pool (Annotations.extend_schema emp_schema) in
  let addrs =
    List.fold_left
      (fun acc i ->
        let prev = match acc with a :: _ -> a | [] -> Addr.zero in
        let user = emp (Printf.sprintf "w%d" i) i in
        Heap.insert heap (Array.append user [| Value.Int (Int64.of_int prev); Value.Null |])
        :: acc)
      [] [ 0; 1; 2 ]
    |> List.rev
  in
  let a1 = List.nth addrs 1 and a2 = List.nth addrs 2 in
  Heap.flush heap;
  let record = record_of_page pool a2 in
  let len = Bytes.length record in
  checkb "byte 9 from the end is tag_int" true (Bytes.get record (len - 9) = Codec.tag_int);
  checkb "the record ends in tag_null" true (Bytes.get record (len - 1) = Codec.tag_null);
  let f = Codec.Fields.of_record record in
  checki "PrevAddr read by the walk" a1 (Annotations.record_prev f);
  checki "NULL TimeStamp read by the walk" Annotations.null (Annotations.record_ts f);
  checkb "no fixed tail to patch" false (Annotations.record_patchable f);
  let clock = Clock.create () in
  let base = Base_table.on_pool ~name:"emp" ~clock pool emp_schema in
  let fixup_time = Clock.tick clock in
  let stats = Fixup.run base ~fixup_time in
  checki "every row restamped" 3 stats.Fixup.writes;
  let rewritten =
    List.fold_left
      (fun acc a -> acc + Bytes.length (record_of_page pool a))
      0 addrs
  in
  checki "each write rewrote its whole row" rewritten stats.Fixup.bytes;
  List.iteri
    (fun i a ->
      let prev = if i = 0 then Addr.zero else List.nth addrs (i - 1) in
      checkb (Printf.sprintf "row %d annotations" i) true
        (Base_table.get_annotations base a
         = Some { Annotations.prev_addr = Some prev; timestamp = Some fixup_time });
      checkb (Printf.sprintf "row %d now has a fixed tail" i) true
        (Annotations.record_patchable (Codec.Fields.of_record (record_of_page pool a))))
    addrs

(* A stored PrevAddr whose bit 63 flipped is outside OCaml's int range:
   dropping the bit would fold it back to a valid address, so every
   reader refuses it, the scan's in-place reader first of all. *)
let test_annotation_bit63_rejected () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let addrs = List.init 4 (fun i -> Base_table.insert base (emp (Printf.sprintf "b%d" i) i)) in
  ignore (run_fixup base : Fixup.stats);
  let victim = List.nth addrs 2 in
  Buffer_pool.with_page (Base_table.pool base) (Addr.page victim) (fun page ->
      let found = ref false in
      Page.iter_live_spans page (fun slot ~off ~len ->
          if slot = Addr.slot victim then begin
            (* The PrevAddr payload's top byte: tail offset 1 + 7. *)
            let at = off + len - Annotations.tail_bytes + 8 in
            let b = Page.bytes page in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x80));
            found := true
          end);
      checkb "victim found" true !found;
      (`Dirty, ()));
  let f = Codec.Fields.of_record (record_of_page (Base_table.pool base) victim) in
  checkb "in-place reader fails" true
    (match Annotations.record_prev f with _ -> false | exception Failure _ -> true);
  checkb "decoded-tuple reader fails" true
    (match Base_table.get_annotations base victim with
     | _ -> false
     | exception Failure _ -> true);
  checkb "a refresh over the page fails" true
    (match
       Differential.refresh ~base ~snaptime:Clock.never
         ~restrict:(Annotations.user_pred sal_lt10) ~xmit:ignore ()
     with
     | _ -> false
     | exception Failure _ -> true)

(* CREATE SNAPSHOT's selectivity, counted with the record predicate (at
   most [sample_threshold] rows) or sampled over addresses (above it),
   equals bit for bit the estimate of the former decode of every row:
   the same rows, and above the threshold the same RNG draws in the same
   order. *)
let test_selectivity_estimate_unchanged () =
  let module W = Snapdiff_workload.Workload in
  List.iter
    (fun (n, deletes) ->
      let clock = Clock.create () in
      let base = W.make_base ~clock () in
      let rng = Snapdiff_util.Rng.create (n + deletes) in
      W.populate base ~rng ~n;
      List.iteri
        (fun i (a, _) -> if i mod 7 = 0 && i / 7 < deletes then Base_table.delete base a)
        (Base_table.to_user_list base);
      let expr = W.restrict_fraction 0.3 in
      let seed = 17 in
      let expected =
        let restrict = Snapdiff_expr.Eval.compile W.schema expr in
        let rows = List.map snd (Base_table.to_user_list base) in
        let count = List.length rows in
        if count <= 10_000 then
          float_of_int (List.length (List.filter restrict rows)) /. float_of_int count
        else begin
          let sample = 1_000 in
          let rng = Snapdiff_util.Rng.create seed in
          let reservoir = Array.make sample (Tuple.make []) in
          List.iteri
            (fun seen u ->
              if seen < sample then reservoir.(seen) <- u
              else begin
                let j = Snapdiff_util.Rng.int rng (seen + 1) in
                if j < sample then reservoir.(j) <- u
              end)
            rows;
          let hits =
            Array.fold_left (fun acc u -> if restrict u then acc + 1 else acc) 0 reservoir
          in
          float_of_int hits /. float_of_int sample
        end
      in
      let m = Manager.create ~seed () in
      Manager.register_base m base;
      ignore
        (Manager.create_snapshot m ~name:"s" ~base:(Base_table.name base) ~restrict:expr
           ~method_:Manager.Differential ()
          : Manager.refresh_report);
      let got = Manager.selectivity_estimate m "s" in
      checkb
        (Printf.sprintf "n=%d: estimate %.17g = former %.17g" n got expected)
        true (Float.equal got expected))
    [ (3_000, 40); (10_000, 0); (12_000, 300) ]

let suite =
  [
    Alcotest.test_case "annotations schema" `Quick test_annotations_schema;
    Alcotest.test_case "annotations tuples" `Quick test_annotations_tuple_roundtrip;
    Alcotest.test_case "record walk: NULL TimeStamp tail" `Quick test_walk_null_timestamp_tail;
    Alcotest.test_case "annotation bit 63 rejected" `Quick test_annotation_bit63_rejected;
    Alcotest.test_case "selectivity estimate unchanged" `Quick test_selectivity_estimate_unchanged;
    Alcotest.test_case "refresh msg codec" `Quick test_refresh_msg_roundtrip;
    Alcotest.test_case "deferred insert NULLs" `Quick test_deferred_insert_nulls;
    Alcotest.test_case "deferred update NULLs ts" `Quick test_deferred_update_nulls_timestamp;
    Alcotest.test_case "deferred ops skip clock" `Quick test_deferred_ops_do_not_touch_clock;
    Alcotest.test_case "eager insert chains" `Quick test_eager_insert_chains;
    Alcotest.test_case "eager delete repoints" `Quick test_eager_delete_repoints_successor;
    Alcotest.test_case "eager tail delete traceless" `Quick
      test_eager_delete_last_entry_leaves_no_trace;
    Alcotest.test_case "eager insert into gap" `Quick test_eager_insert_into_gap;
    Alcotest.test_case "mutation counter" `Quick test_mutation_counter;
    Alcotest.test_case "observers" `Quick test_observers_see_user_tuples;
    Alcotest.test_case "wal records" `Quick test_wal_records_written;
    Alcotest.test_case "fixup fresh table" `Quick test_fixup_fresh_table;
    Alcotest.test_case "fixup idempotent" `Quick test_fixup_idempotent;
    Alcotest.test_case "fixup detects update" `Quick test_fixup_detects_update;
    Alcotest.test_case "fixup detects deletion" `Quick test_fixup_detects_deletion_anomaly;
    Alcotest.test_case "fixup insert-before" `Quick test_fixup_insert_before_existing_no_stamp;
    Alcotest.test_case "fixup step pseudocode" `Quick test_fixup_step_pseudocode_cases;
    Alcotest.test_case "paper example: messages" `Quick test_paper_example_messages;
    Alcotest.test_case "paper example: snapshot" `Quick test_paper_example_snapshot_state;
    Alcotest.test_case "paper example: base after" `Quick test_paper_example_base_after_fixup;
    Alcotest.test_case "quiescent refresh" `Quick test_refresh_quiescent_sends_only_tail;
    Alcotest.test_case "tail suppression" `Quick test_tail_suppression;
    Alcotest.test_case "eager = deferred" `Quick test_eager_refresh_matches_deferred;
    Alcotest.test_case "refresh from never" `Quick test_refresh_from_never_sends_everything_qualified;
  ]
