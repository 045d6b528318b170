(* Durability and concurrency-control tests:

   - a file-backed base table survives a close/reopen with its annotations
     intact, and differential refresh continues from the persisted state;
   - refresh takes the paper's table-level lock, so it conflicts with
     in-flight writers and proceeds once they finish;
   - the figure harness produces the paper's qualitative orderings. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Expr = Snapdiff_expr.Expr

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let tuple = Alcotest.testable Tuple.pp Tuple.equal

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

let with_tmp_file f =
  let path = Filename.temp_file "snapdiff_base" ".db" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_base_table_survives_restart () =
  with_tmp_file (fun path ->
      (* Session 1: build, fix up, mutate, flush, close. *)
      let a_hamid, snaptime, clock_at_close =
        let store = Page_store.open_file ~page_size:1024 path in
        let pool = Buffer_pool.create ~frames:8 store in
        let clock = Clock.create () in
        let base = Base_table.on_pool ~name:"emp" ~clock pool emp_schema in
        ignore (Base_table.insert base (emp "Bruce" 15) : Addr.t);
        let a_hamid = Base_table.insert base (emp "Hamid" 9) in
        ignore (Base_table.insert base (emp "Paul" 8) : Addr.t);
        ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
        let snaptime = Clock.now clock in
        (* A post-snapshot change: Hamid's timestamp goes NULL. *)
        Base_table.update base a_hamid (emp "Hamid" 15);
        Base_table.flush base;
        Page_store.close store;
        (a_hamid, snaptime, Clock.now clock)
      in
      (* Session 2: reopen; annotations (including the NULL) persisted. *)
      let store = Page_store.open_file path in
      let pool = Buffer_pool.create ~frames:8 store in
      (* "A local, recoverable counter" serves as the clock. *)
      let clock = Clock.create ~start:clock_at_close () in
      let base = Base_table.on_pool ~name:"emp" ~clock pool emp_schema in
      checki "rows recovered" 3 (Base_table.count base);
      let ann = Option.get (Base_table.get_annotations base a_hamid) in
      checkb "NULL timestamp persisted" true (ann.Annotations.timestamp = None);
      checkb "prevaddr persisted" true (ann.Annotations.prev_addr <> None);
      (* Differential refresh picks up exactly the persisted pending change. *)
      let msgs = ref [] in
      let report =
        Differential.refresh ~base ~snaptime
          ~restrict:(Annotations.user_pred (fun t -> salary t < 10))
          ~xmit:(fun m -> msgs := m :: !msgs)
          ()
      in
      (* Hamid left the snapshot (unqualified change) => deletion flag =>
         Paul transmitted; plus the tail. *)
      checki "two data messages" 2 report.Differential.data_messages;
      checkb "Paul retransmitted" true
        (List.exists
           (function
             | Refresh_msg.Entry { row; _ } -> Tuple.equal (Row.to_tuple row) (emp "Paul" 8)
             | _ -> false)
           !msgs);
      Page_store.close store)

let test_refresh_blocks_on_writer () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  ignore (Base_table.insert base (emp "Bruce" 15) : Addr.t);
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 10)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  (* A writer transaction holds IX on the table (mid-flight update). *)
  let writers = Txn.create_manager () in
  let w = Txn.begin_txn writers in
  (* The Manager has its own lock space; to make the conflict observable we
     drive the same Lock.t the manager uses... which it does not expose.
     Instead we demonstrate at the Lock level with the table resource. *)
  ignore w;
  let lm = Lock.create () in
  let res = Base_table.lock_resource base in
  checkb "writer gets IX" true (Lock.acquire lm 1 res Lock.IX = `Granted);
  (* The refresher (deferred differential needs X) must wait. *)
  (match Lock.acquire lm 2 res Lock.X with
  | `Would_block blockers -> Alcotest.(check (list int)) "blocked by writer" [ 1 ] blockers
  | _ -> Alcotest.fail "refresh lock must block");
  (* Writer commits; refresher is granted. *)
  let woken = Lock.release_all lm 1 in
  Alcotest.(check (list int)) "refresher woken" [ 2 ] woken;
  checkb "now exclusive" true (Lock.holds lm 2 res = Some Lock.X);
  (* And read-only methods take S, which IS compatible with other readers. *)
  let lm2 = Lock.create () in
  checkb "reader1" true (Lock.acquire lm2 1 res Lock.S = `Granted);
  checkb "reader2 shares" true (Lock.acquire lm2 2 res Lock.S = `Granted)

let test_harness_qualitative_shape () =
  (* Small-n regression of the figure harness: the paper's orderings. *)
  let sweep =
    Snapdiff_figures.Figures.message_sweep ~n:1_500 ~q:0.25
      ~u_list:[ 0.05; 0.2; 0.5; 1.0 ] ()
  in
  List.iter
    (fun p ->
      let open Snapdiff_figures.Figures in
      checkb
        (Printf.sprintf "ideal <= diff at u=%.0f%%" p.u_pct)
        true
        (p.ideal_sim <= p.diff_sim +. 0.2);
      checkb
        (Printf.sprintf "diff <= full (+tail) at u=%.0f%%" p.u_pct)
        true
        (p.diff_sim <= p.full_sim +. 0.2);
      checkb "model tracks simulation" true
        (Float.abs (p.diff_sim -. p.diff_model) < Float.max 0.6 (0.25 *. p.diff_model)))
    sweep.Snapdiff_figures.Figures.points;
  (* At u=100%, differential ~ full. *)
  let last = List.nth sweep.Snapdiff_figures.Figures.points 3 in
  checkb "diff converges to full" true
    (Float.abs (last.Snapdiff_figures.Figures.diff_sim -. last.Snapdiff_figures.Figures.full_sim)
    < 0.3)

let test_ablations_run_small () =
  (* Each ablation harness executes and returns sane rows at tiny scale. *)
  let churn = Snapdiff_figures.Figures.churn_ablation ~n:500 () in
  checki "five mixes" 5 (List.length churn);
  List.iter
    (fun r ->
      checkb "ideal <= full" true
        Snapdiff_figures.Figures.(r.ideal_msgs <= r.full_msgs + 50))
    churn;
  let maint = Snapdiff_figures.Figures.maintenance_ablation ~n:500 () in
  (match maint with
  | [ eager; deferred ] ->
    checkb "eager ticks the clock" true Snapdiff_figures.Figures.(eager.clock_ticks > 0);
    checkb "deferred does not" true Snapdiff_figures.Figures.(deferred.clock_ticks = 0);
    checkb "deferred pays at refresh" true
      Snapdiff_figures.Figures.(deferred.annotation_writes_at_refresh > 0)
  | _ -> Alcotest.fail "two modes");
  let tail = Snapdiff_figures.Figures.tail_ablation ~n:500 () in
  (match tail with
  | quiet :: _ ->
    checki "paper pays the tail at u=0" 1 Snapdiff_figures.Figures.(quiet.msgs_paper);
    checki "suppressed pays nothing" 0 Snapdiff_figures.Figures.(quiet.msgs_suppressed)
  | [] -> Alcotest.fail "tail rows");
  let logscan = Snapdiff_figures.Figures.log_scan_ablation ~n:500 () in
  checkb "scanning grows with other tables" true
    (match logscan with
    | a :: rest ->
      List.for_all
        Snapdiff_figures.Figures.(fun r -> r.log_records_scanned >= a.log_records_scanned)
        rest
    | [] -> false)

let test_example_tuple_roundtrip_through_file () =
  (* A snapshot's page table after thousands of messages: count, layout
     and a spot read. *)
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  for i = 1 to 2_000 do
    Snapshot_table.apply s
      (Refresh_msg.Upsert { addr = i;
          row = Row.of_tuple (emp (Printf.sprintf "e%04d" i) (i mod 20)) })
  done;
  for i = 1 to 2_000 do
    if i mod 3 = 0 then Snapshot_table.apply s (Refresh_msg.Remove { addr = i })
  done;
  checki "count" (2_000 - (2_000 / 3)) (Snapshot_table.count s);
  checkb "valid" true (Snapshot_table.validate s = Ok ());
  Alcotest.check (Alcotest.option tuple) "spot check" (Some (emp "e0002" 2))
    (Snapshot_table.get s 2)

(* Full checkpoint/crash/redo cycle: flush + checkpoint + truncate the log,
   keep operating without flushing, "crash", reopen the store (state as of
   the checkpoint), redo the retained log suffix, and arrive at exactly the
   pre-crash committed state. *)
let test_checkpoint_crash_redo () =
  with_tmp_file (fun path ->
      let wal = Snapdiff_wal.Wal.create () in
      let clock = Clock.create () in
      let pre_crash_state, checkpoint_lsn =
        let store = Page_store.open_file ~page_size:1024 path in
        (* Frames sized so nothing evicts: un-flushed work really is lost
           at the crash. *)
        let pool = Buffer_pool.create ~frames:64 store in
        let base = Base_table.on_pool ~wal ~name:"emp" ~clock pool emp_schema in
        let a = Base_table.insert base (emp "Bruce" 15) in
        let b = Base_table.insert base (emp "Hamid" 9) in
        ignore (Base_table.insert base (emp "Jack" 6) : Addr.t);
        (* CHECKPOINT: push table state to disk, mark the log, truncate. *)
        Base_table.flush base;
        let cp =
          Snapdiff_wal.Wal.append wal (Snapdiff_wal.Record.Checkpoint { active = [] })
        in
        checkb "no hold stops the truncation" true (Snapdiff_wal.Wal.truncate_before wal cp = []);
        (* Post-checkpoint work, never flushed. *)
        Base_table.update base a (emp "Bruce" 5);
        Base_table.delete base b;
        ignore (Base_table.insert base (emp "Laura" 6) : Addr.t);
        let state = Base_table.to_user_list base in
        Page_store.close store;  (* crash: volatile frames vanish *)
        (state, cp)
      in
      ignore checkpoint_lsn;
      (* Restart: the store holds the checkpoint image... *)
      let store = Page_store.open_file path in
      let pool = Buffer_pool.create ~frames:64 store in
      let heap = Heap.on_pool pool (Annotations.extend_schema emp_schema) in
      checki "checkpoint image only" 3 (Heap.count heap);
      (* ...and redo replays the retained suffix. *)
      Snapdiff_wal.Recovery.redo wal (function "emp" -> Some heap | _ -> None);
      let recovered =
        List.map
          (fun (addr, stored) -> (addr, Annotations.user_part stored))
          (Heap.to_list heap)
      in
      checkb "recovered = pre-crash committed state" true (recovered = pre_crash_state);
      Page_store.close store)

(* ---- real durability: file WAL + fuzzy checkpoints ------------------- *)

module Wal = Snapdiff_wal.Wal
module Recovery = Snapdiff_wal.Recovery
module Workload = Snapdiff_workload.Workload
module Rng = Snapdiff_util.Rng
module Gen = QCheck2.Gen

let copy_prefix src dst keep =
  let ic = open_in_bin src in
  let body =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (min keep (in_channel_length ic)))
  in
  let oc = open_out_bin dst in
  output_string oc body;
  close_out oc

let qual t =
  match Tuple.get t 2 with Value.Int q -> Int64.to_int q | _ -> -1

(* The tentpole's torture property: run a random workload against a
   file-backed group-committed WAL, "kill" the process by keeping only a
   random byte prefix of the segment, reopen, redo, then define and
   refresh a snapshot on the recovered table — the snapshot must equal
   the recovered base's restriction exactly. *)
let prop_kill_at_random_byte =
  QCheck2.Test.make ~name:"kill at a random byte: recover, refresh, verify" ~count:12
    (Gen.pair (Gen.int_range 0 100_000) (Gen.float_bound_inclusive 1.0))
    (fun (seed, cut_frac) ->
      let wal_path = Filename.temp_file "snapdiff_torture" ".wal" in
      let cut_path = Filename.temp_file "snapdiff_torture_cut" ".wal" in
      let rm p = try Sys.remove p with Sys_error _ -> () in
      Fun.protect
        ~finally:(fun () -> rm wal_path; rm cut_path)
        (fun () ->
          (* Life before the crash: populate + churn, group-committed. *)
          let wal = Wal.create ~backend:(Wal.File wal_path) ~group_commit_window:4 () in
          let clock = Clock.create () in
          let base = Workload.make_base ~wal ~name:"emp" ~page_size:512 ~clock () in
          let rng = Rng.create seed in
          let n = 60 + (seed mod 60) in
          Workload.populate base ~rng ~n;
          let commits = ref n in
          for _ = 1 to 3 do
            commits := !commits + Workload.update_fraction base ~rng ~u:0.25 ~mix:Workload.churn
          done;
          Wal.sync wal;
          (* Honest group commit: > 1 committed txn per fsync on average. *)
          if Wal.fsyncs wal = 0 then QCheck2.Test.fail_report "no fsyncs";
          if float_of_int !commits /. float_of_int (Wal.fsyncs wal) < 2.0 then
            QCheck2.Test.fail_report "group commit not batching";
          Wal.close wal;
          (* The crash: the disk kept an arbitrary byte prefix. *)
          let size = (Unix.stat wal_path).Unix.st_size in
          let keep = 16 + int_of_float (cut_frac *. float_of_int (size - 16)) in
          copy_prefix wal_path cut_path keep;
          (* Recovery: reopen (torn tail trimmed), redo into a fresh heap. *)
          let rlog = Wal.open_file cut_path in
          let heap = Heap.create ~page_size:512 (Annotations.extend_schema Workload.schema) in
          Recovery.redo rlog (function "emp" -> Some heap | _ -> None);
          let rbase =
            Base_table.on_pool ~wal:rlog ~name:"emp" ~clock:(Clock.create ())
              (Heap.pool heap) Workload.schema
          in
          (* Back in business: snapshot the recovered table, churn (appending
             to the recovered log), refresh differentially, verify. *)
          let m = Manager.create () in
          Manager.register_base m rbase;
          ignore
            (Manager.create_snapshot m ~name:"s" ~base:"emp"
               ~restrict:(Workload.restrict_fraction 0.5)
               ~method_:Manager.Differential ()
              : Manager.refresh_report);
          ignore (Workload.update_fraction rbase ~rng ~u:0.2 ~mix:Workload.churn : int);
          ignore (Manager.refresh m "s" : Manager.refresh_report);
          let expected =
            List.filter
              (fun (_, u) -> qual u < Workload.qual_domain / 2)
              (Base_table.to_user_list rbase)
          in
          let snap = Manager.snapshot_table m "s" in
          Snapshot_table.contents snap = expected && Snapshot_table.validate snap = Ok ()))

(* A fuzzy checkpoint fired from a chunked refresh's chunk hook must gate
   its WAL truncation on the live scan: the floor is the scan's start LSN,
   the refresh's catch-up still finds its tail, and nothing escalates. *)
let test_checkpoint_gates_on_live_scan () =
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base = Base_table.create ~page_size:256 ~wal ~name:"emp" ~clock emp_schema in
  let m = Manager.create ~chunk_entries:4 () in
  Manager.register_base m base;
  for i = 0 to 39 do
    ignore (Base_table.insert base (emp (Printf.sprintf "e%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 10)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let addrs = List.map fst (Base_table.to_user_list base) in
  List.iteri (fun i a -> if i mod 4 = 0 then Base_table.update base a (emp "upd" (i mod 20))) addrs;
  let lsn0 = Wal.end_lsn wal in
  let cp_report = ref None in
  let in_hook = ref false in
  Manager.set_chunk_hook m
    (Some
       (fun () ->
         (* The checkpoint itself yields here between page flushes; the
            guard keeps the hook from recursing into a second checkpoint. *)
         if (not !in_hook) && !cp_report = None then begin
           in_hook := true;
           (* Mutate mid-scan so the catch-up phase has a tail to replay —
              a tail the checkpoint must NOT truncate away. *)
           Base_table.update base (List.hd addrs) (emp "mid" 3);
           cp_report := Some (Manager.checkpoint m "emp");
           in_hook := false
         end));
  let report = Manager.refresh m "s" in
  Manager.set_chunk_hook m None;
  let cp = Option.get !cp_report in
  checkb "truncation was gated" true (cp.Manager.cp_gated <> []);
  checkb "the gate names the live scan's hold" true
    (List.mem ("scan:emp", lsn0) cp.Manager.cp_gated);
  checki "floor = the live scan's start LSN" lsn0 cp.Manager.cp_truncated_to;
  checkb "refresh did not escalate" false report.Manager.escalated;
  checkb "catch-up replayed the tail" true (report.Manager.catchup_records > 0);
  let expected =
    List.filter (fun (_, u) -> salary u < 10) (Base_table.to_user_list base)
  in
  let snap = Manager.snapshot_table m "s" in
  checkb "snapshot faithful" true (Snapshot_table.contents snap = expected);
  checkb "snapshot valid" true (Snapshot_table.validate snap = Ok ());
  (* With the scan gone, the next checkpoint truncates past the old floor. *)
  let cp2 = Manager.checkpoint m "emp" in
  checkb "no gate once the scan is done" true (cp2.Manager.cp_gated = []);
  checkb "floor advanced" true (cp2.Manager.cp_truncated_to > lsn0)

(* Fuzzy checkpoint + crash + redo on REAL files, with a mutation landing
   in the middle of the checkpoint's page walk: the flushed image may carry
   post-begin-LSN effects, so recovery relies on redo being idempotent. *)
let test_fuzzy_checkpoint_crash_redo () =
  with_tmp_file (fun store_path ->
      let wal_path = Filename.temp_file "snapdiff_fuzzy" ".wal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove wal_path with Sys_error _ -> ())
        (fun () ->
          let wal = Wal.create ~backend:(Wal.File wal_path) ~group_commit_window:4 () in
          let clock = Clock.create () in
          let pre_crash, cp =
            let store = Page_store.open_file ~page_size:512 store_path in
            let pool = Buffer_pool.create ~frames:64 store in
            let base = Base_table.on_pool ~wal ~name:"emp" ~clock pool emp_schema in
            let addrs =
              Array.init 24 (fun i -> Base_table.insert base (emp (Printf.sprintf "e%02d" i) i))
            in
            let m = Manager.create () in
            Manager.register_base m base;
            (* The chunk hook doubles as the checkpoint's yield point:
               mutate WHILE the checkpoint walks the pool — the "fuzzy". *)
            let fired = ref false in
            Manager.set_chunk_hook m
              (Some
                 (fun () ->
                   if not !fired then begin
                     fired := true;
                     Base_table.update base addrs.(0) (emp "mid" 99);
                     Base_table.delete base addrs.(1)
                   end));
            let cp = Manager.checkpoint m "emp" in
            Manager.set_chunk_hook m None;
            checkb "hook interleaved mid-checkpoint" true !fired;
            (* Post-checkpoint work, never flushed — lives only in the log. *)
            Base_table.update base addrs.(2) (emp "post" 77);
            ignore (Base_table.insert base (emp "Laura" 6) : Addr.t);
            Wal.sync wal;
            let state = Base_table.to_user_list base in
            Page_store.close store;  (* crash: volatile frames vanish *)
            (state, cp)
          in
          Wal.close wal;
          checkb "checkpoint flushed pages" true (cp.Manager.cp_pages_flushed > 0);
          checkb "checkpoint wrote bytes" true (cp.Manager.cp_bytes_written > 0);
          checkb "log was truncated" true (cp.Manager.cp_truncated_to > 0);
          checkb "log bytes reclaimed" true (cp.Manager.cp_log_bytes_reclaimed > 0);
          checkb "ungated" true (cp.Manager.cp_gated = []);
          (* Restart: durable page image + reopened, truncated segment. *)
          let rlog = Wal.open_file wal_path in
          checki "segment starts at the checkpoint floor" cp.Manager.cp_truncated_to
            (Wal.oldest_retained rlog);
          let store = Page_store.open_file store_path in
          let pool = Buffer_pool.create ~frames:64 store in
          let heap = Heap.on_pool pool (Annotations.extend_schema emp_schema) in
          let image = Heap.to_list heap in
          Recovery.redo rlog (function "emp" -> Some heap | _ -> None);
          checkb "redo replayed the post-checkpoint work" true (Heap.to_list heap <> image);
          let recovered =
            List.map
              (fun (addr, stored) -> (addr, Annotations.user_part stored))
              (Heap.to_list heap)
          in
          checkb "recovered = pre-crash committed state" true (recovered = pre_crash);
          Wal.close rlog;
          Page_store.close store))

(* Two bases on one file WAL: a checkpoint of one must keep the redo
   records of the other's unflushed pages.  The checkpoint of [a]
   checkpoints every base on the log and truncates to the lowest begin
   LSN, so a crash without a flush recovers both tables. *)
let test_checkpoint_keeps_shared_log_redo () =
  let a_path = Filename.temp_file "snapdiff_a" ".db"
  and b_path = Filename.temp_file "snapdiff_b" ".db"
  and wal_path = Filename.temp_file "snapdiff_shared" ".wal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ a_path; b_path; wal_path ])
    (fun () ->
      let wal = Wal.create ~backend:(Wal.File wal_path) () in
      let clock = Clock.create () in
      let m = Manager.create () in
      let open_base name path =
        let store = Page_store.open_file ~page_size:512 path in
        let pool = Buffer_pool.create ~frames:64 store in
        let base = Base_table.on_pool ~wal ~name ~clock pool emp_schema in
        Manager.register_base m base;
        (store, base)
      in
      let a_store, a = open_base "a" a_path in
      let b_store, b = open_base "b" b_path in
      List.iter
        (fun base ->
          for i = 1 to 5 do
            ignore (Base_table.insert base (emp (Printf.sprintf "e%d" i) i) : Addr.t)
          done)
        [ a; b ];
      let want_a = Base_table.to_user_list a and want_b = Base_table.to_user_list b in
      ignore (Manager.checkpoint m "a" : Manager.checkpoint_report);
      (* Crash: no flush, the pools' frames vanish. *)
      Page_store.close a_store;
      Page_store.close b_store;
      Wal.close wal;
      let rlog = Wal.open_file wal_path in
      let reopen path =
        let store = Page_store.open_file path in
        let pool = Buffer_pool.create ~frames:64 store in
        (store, Heap.on_pool pool (Annotations.extend_schema emp_schema))
      in
      let a_store, ha = reopen a_path in
      let b_store, hb = reopen b_path in
      Recovery.redo rlog (function "a" -> Some ha | "b" -> Some hb | _ -> None);
      let rows heap =
        List.map (fun (addr, stored) -> (addr, Annotations.user_part stored)) (Heap.to_list heap)
      in
      checkb "a recovered" true (rows ha = want_a);
      checkb "b recovered" true (rows hb = want_b);
      Wal.close rlog;
      Page_store.close a_store;
      Page_store.close b_store)

(* Review regression: Begin_checkpoint must record the transactions
   actually in flight at the manager, not a hard-coded empty list. *)
let test_checkpoint_records_live_txns () =
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base = Base_table.create ~wal ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  ignore (Base_table.insert base (emp "Bruce" 15) : Addr.t);
  let last_active () =
    Wal.fold_from wal (Wal.oldest_retained wal) ~init:None ~f:(fun acc _ r ->
        match r with
        | Snapdiff_wal.Record.Begin_checkpoint { active } -> Some active
        | _ -> acc)
  in
  let t1 = Txn.begin_txn (Manager.txn_manager m) in
  let t2 = Txn.begin_txn (Manager.txn_manager m) in
  ignore (Manager.checkpoint m "emp" : Manager.checkpoint_report);
  Alcotest.(check (option (list int))) "live txns recorded"
    (Some [ Txn.id t1; Txn.id t2 ]) (last_active ());
  ignore (Txn.commit t1 : int list);
  ignore (Txn.abort t2 : int list);
  ignore (Manager.checkpoint m "emp" : Manager.checkpoint_report);
  Alcotest.(check (option (list int))) "empty once they finish" (Some [])
    (last_active ())

let suite =
  [
    Alcotest.test_case "base table survives restart" `Quick test_base_table_survives_restart;
    Alcotest.test_case "checkpoint records live txns" `Quick
      test_checkpoint_records_live_txns;
    QCheck_alcotest.to_alcotest prop_kill_at_random_byte;
    Alcotest.test_case "checkpoint gates on live scan" `Quick test_checkpoint_gates_on_live_scan;
    Alcotest.test_case "checkpoint keeps a shared log's redo" `Quick
      test_checkpoint_keeps_shared_log_redo;
    Alcotest.test_case "fuzzy checkpoint crash redo" `Quick test_fuzzy_checkpoint_crash_redo;
    Alcotest.test_case "checkpoint crash redo" `Quick test_checkpoint_crash_redo;
    Alcotest.test_case "refresh blocks on writer" `Quick test_refresh_blocks_on_writer;
    Alcotest.test_case "harness qualitative shape" `Quick test_harness_qualitative_shape;
    Alcotest.test_case "ablations run small" `Quick test_ablations_run_small;
    Alcotest.test_case "snapshot heap stress" `Quick test_example_tuple_roundtrip_through_file;
  ]
