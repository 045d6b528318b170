(* Tests for the snapshot table, the manager (catalog / method selection /
   multi-snapshot), the ideal and log-based methods, and ASAP propagation. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Expr = Snapdiff_expr.Expr
module Link = Snapdiff_net.Link
module Change_log = Snapdiff_changelog.Change_log

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let tuple = Alcotest.testable Tuple.pp Tuple.equal

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let restrict_lt10 = Expr.(col "salary" <. int 10)

(* ------------------------------------------------------------------ *)
(* Snapshot table *)

let test_snapshot_table_upsert_remove () =
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  Snapshot_table.apply s (Refresh_msg.Upsert { addr = 5; row = Row.of_tuple (emp "a" 1) });
  Snapshot_table.apply s (Refresh_msg.Upsert { addr = 3; row = Row.of_tuple (emp "b" 2) });
  Snapshot_table.apply s (Refresh_msg.Upsert { addr = 5; row = Row.of_tuple (emp "a2" 3) });
  checki "two entries" 2 (Snapshot_table.count s);
  Alcotest.check (Alcotest.option tuple) "upsert replaced" (Some (emp "a2" 3))
    (Snapshot_table.get s 5);
  Snapshot_table.apply s (Refresh_msg.Remove { addr = 3 });
  Snapshot_table.apply s (Refresh_msg.Remove { addr = 99 });  (* no-op *)
  checki "one left" 1 (Snapshot_table.count s);
  checki "high water" 5 (Snapshot_table.high_water s);
  checkb "valid" true (Snapshot_table.validate s = Ok ())

let test_snapshot_table_entry_range_delete () =
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  List.iter
    (fun a -> Snapshot_table.apply s
      (Refresh_msg.Upsert { addr = a; row = Row.of_tuple (emp "x" a) }))
    [ 1; 2; 3; 4; 5; 6 ];
  (* Entry at 6 with prev_qual 2: everything strictly between dies. *)
  Snapshot_table.apply s
    (Refresh_msg.Entry { addr = 6; prev_qual = 2; row = Row.of_tuple (emp "y" 6) });
  Alcotest.(check (list int)) "3,4,5 deleted" [ 1; 2; 6 ]
    (List.map fst (Snapshot_table.contents s));
  Alcotest.check (Alcotest.option tuple) "6 upserted" (Some (emp "y" 6)) (Snapshot_table.get s 6)

let test_snapshot_table_tail_and_region () =
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  List.iter
    (fun a -> Snapshot_table.apply s
      (Refresh_msg.Upsert { addr = a; row = Row.of_tuple (emp "x" a) }))
    [ 1; 3; 5; 7; 9 ];
  Snapshot_table.apply s (Refresh_msg.Region { lo = 3; hi = 7 });
  Alcotest.(check (list int)) "region deletes inclusive" [ 1; 9 ]
    (List.map fst (Snapshot_table.contents s));
  Snapshot_table.apply s (Refresh_msg.Tail { last_qual = 1 });
  Alcotest.(check (list int)) "tail deletes above" [ 1 ] (List.map fst (Snapshot_table.contents s));
  Snapshot_table.apply s Refresh_msg.Clear;
  checki "cleared" 0 (Snapshot_table.count s);
  checkb "valid" true (Snapshot_table.validate s = Ok ())

let test_snapshot_table_snaptime_and_bytes () =
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  checki "initial snaptime" Clock.never (Snapshot_table.snaptime s);
  let b = Refresh_msg.encode (Refresh_msg.Snaptime 42) in
  Snapshot_table.apply_bytes s b (Bytes.length b);
  checki "snaptime applied" 42 (Snapshot_table.snaptime s)

(* ------------------------------------------------------------------ *)
(* Manager *)

let mk_manager ?mode ?wal () =
  let clock = Clock.create () in
  let base = Base_table.create ?mode ?wal ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  (m, base, clock)

let populate base =
  List.map
    (fun (n, s) -> Base_table.insert base (emp n s))
    [ ("Bruce", 15); ("Hamid", 9); ("Jack", 6); ("Mohan", 9); ("Paul", 8); ("Bob", 8) ]

let snap_tuples m name = List.map snd (Snapshot_table.contents (Manager.snapshot_table m name))

let expected_restricted base =
  List.filter_map
    (fun (_, u) ->
      match Tuple.get u 1 with Value.Int s when Int64.to_int s < 10 -> Some u | _ -> None)
    (Base_table.to_user_list base)

let test_manager_create_populates () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  let report =
    Manager.create_snapshot m ~name:"lowpay" ~base:"emp" ~restrict:restrict_lt10 ()
  in
  checkb "initial population is full" true (report.Manager.method_used = Manager.Used_full);
  checki "five entries sent" 5 report.Manager.data_messages;
  checkb "bytes counted" true (report.Manager.link_bytes > 0);
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "snapshot = restricted base" (expected_restricted base) (snap_tuples m "lowpay")

let test_manager_differential_refresh_tracks () =
  let m, base, _ = mk_manager () in
  let addrs = populate base in
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  (* Changes: raise Hamid out, delete Jack, hire Laura. *)
  Base_table.update base (List.nth addrs 1) (emp "Hamid" 15);
  Base_table.delete base (List.nth addrs 2);
  ignore (Base_table.insert base (emp "Laura" 6) : Addr.t);
  let r = Manager.refresh m "s" in
  checkb "differential used" true (r.Manager.method_used = Manager.Used_differential);
  checkb "few messages" true (r.Manager.data_messages <= 4);
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "still faithful" (expected_restricted base) (snap_tuples m "s");
  (* A second, quiescent refresh sends only the tail. *)
  let r2 = Manager.refresh m "s" in
  checki "quiescent" 1 r2.Manager.data_messages

let test_manager_auto_selects_full_under_churn () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10 ()
      : Manager.refresh_report);
  (* No activity: differential predicted cheaper. *)
  let r = Manager.refresh m "s" in
  checkb "auto -> differential when idle" true
    (r.Manager.method_used = Manager.Used_differential);
  (* Touch every tuple twice: full refresh predicted cheaper than
     differential (which would resend everything anyway plus the tail). *)
  List.iter
    (fun (addr, u) ->
      Base_table.update base addr u;
      Base_table.update base addr u)
    (Base_table.to_user_list base);
  let r = Manager.refresh m "s" in
  checkb "auto -> full under churn" true (r.Manager.method_used = Manager.Used_full);
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "faithful either way" (expected_restricted base) (snap_tuples m "s")

let test_manager_projection () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  ignore
    (Manager.create_snapshot m ~name:"names" ~base:"emp" ~restrict:restrict_lt10
       ~projection:[ "name" ] ()
      : Manager.refresh_report);
  let tuples = snap_tuples m "names" in
  checkb "one column" true (List.for_all (fun t -> Array.length t = 1) tuples);
  checkb "restriction on non-projected column still applied" true
    (List.length tuples = 5);
  (* And it stays correct through differential refreshes. *)
  Base_table.update base (List.hd (List.map fst (Base_table.to_user_list base))) (emp "Bruce" 5);
  let _ = Manager.refresh m "names" in
  checki "Bruce now qualifies" 6 (List.length (snap_tuples m "names"))

let test_manager_ideal_method () =
  let m, base, _ = mk_manager () in
  let addrs = populate base in
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10
       ~method_:Manager.Ideal ()
      : Manager.refresh_report);
  (* Unqualified-to-unqualified change: ideal sends NOTHING. *)
  Base_table.update base (List.nth addrs 0) (emp "Bruce" 20);
  let r = Manager.refresh m "s" in
  checki "no messages for unqualified change" 0 r.Manager.data_messages;
  (* Qualified update: exactly one message. *)
  Base_table.update base (List.nth addrs 3) (emp "Mohan" 7);
  let r = Manager.refresh m "s" in
  checki "exactly one" 1 r.Manager.data_messages;
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "faithful" (expected_restricted base) (snap_tuples m "s");
  (* The change log was truncated after the refresh. *)
  (match Manager.change_log m "emp" with
  | Some log -> checki "log truncated" 0 (Change_log.length log)
  | None -> Alcotest.fail "capture expected")

let test_manager_log_based_method () =
  let wal = Snapdiff_wal.Wal.create () in
  let m, base, _ = mk_manager ~wal () in
  let addrs = populate base in
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10
       ~method_:Manager.Log_based ()
      : Manager.refresh_report);
  Base_table.update base (List.nth addrs 1) (emp "Hamid" 15);
  Base_table.delete base (List.nth addrs 2);
  ignore (Base_table.insert base (emp "Laura" 6) : Addr.t);
  (* Unrelated-to-snapshot change: still scanned (the paper's cost). *)
  Base_table.update base (List.nth addrs 0) (emp "Bruce" 30);
  let r = Manager.refresh m "s" in
  checkb "scanned the log tail" true (r.Manager.log_records_scanned >= 12);
  (* Laura reuses Jack's freed address, so his delete and her insert net
     into a single upsert at that address: Remove(Hamid) + Upsert(Laura). *)
  checki "two messages (Hamid out, Jack->Laura collapsed)" 2 r.Manager.data_messages;
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "faithful" (expected_restricted base) (snap_tuples m "s");
  (* Second refresh scans only the new tail. *)
  let r2 = Manager.refresh m "s" in
  checki "nothing new" 0 r2.Manager.log_records_scanned

let test_manager_log_based_requires_wal () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  Alcotest.check_raises "no wal"
    (Manager.Bad_definition "log-based refresh requires a WAL on the base table") (fun () ->
      ignore
        (Manager.create_snapshot m ~name:"s" ~base:"emp" ~method_:Manager.Log_based ()
          : Manager.refresh_report))

(* The paper's bounded-buffer rule: a log-based snapshot whose cursor
   precedes the earliest retained log falls back to a full transfer.  A
   log-based cursor holds its records, so the log is truncated while the
   snapshot is differential (and holds nothing), then the snapshot
   switches to the log. *)
let test_manager_log_based_truncation_fallback () =
  let wal = Snapdiff_wal.Wal.create () in
  let m, base, _ = mk_manager ~wal () in
  let addrs = populate base in
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  Base_table.update base (List.nth addrs 1) (emp "Hamid" 15);
  (* The log is truncated beyond the snapshot's cursor (bounded buffer). *)
  checkb "no hold stops the truncation" true
    (Snapdiff_wal.Wal.truncate_before wal (Snapdiff_wal.Wal.end_lsn wal) = []);
  Manager.set_method m "s" Manager.Log_based;
  let r = Manager.refresh m "s" in
  checkb "fell back to full" true (r.Manager.method_used = Manager.Used_full);
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "still faithful" (expected_restricted base) (snap_tuples m "s");
  (* Subsequent refreshes are log-based again. *)
  Base_table.delete base (List.nth addrs 2);
  let r2 = Manager.refresh m "s" in
  checkb "log-based resumed" true (r2.Manager.method_used = Manager.Used_log_based);
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "faithful after resume" (expected_restricted base) (snap_tuples m "s")

let test_manager_multiple_snapshots_independent () =
  let m, base, _ = mk_manager () in
  let addrs = populate base in
  ignore
    (Manager.create_snapshot m ~name:"low" ~base:"emp" ~restrict:restrict_lt10
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  ignore
    (Manager.create_snapshot m ~name:"high" ~base:"emp"
       ~restrict:Expr.(col "salary" >=. int 10)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  Base_table.update base (List.nth addrs 1) (emp "Hamid" 15);
  (* Refresh only "low"; "high" stays stale, then catches up. *)
  let _ = Manager.refresh m "low" in
  checkb "low no longer has Hamid" true
    (not (List.exists (fun t -> Tuple.get t 0 = Value.str "Hamid") (snap_tuples m "low")));
  checkb "high is stale" true
    (not (List.exists (fun t -> Tuple.get t 0 = Value.str "Hamid") (snap_tuples m "high")));
  let _ = Manager.refresh m "high" in
  checkb "high caught up" true
    (List.exists
       (fun t -> Tuple.get t 0 = Value.str "Hamid" && Tuple.get t 1 = Value.int 15)
       (snap_tuples m "high"));
  Alcotest.(check (list string)) "catalog" [ "high"; "low" ]
    (List.sort compare (Manager.snapshot_names m))

let test_manager_tail_suppression_option () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10
       ~method_:Manager.Differential ~tail_suppression:true ()
      : Manager.refresh_report);
  let r = Manager.refresh m "s" in
  checkb "suppressed on quiescent refresh" true r.Manager.tail_suppressed;
  checki "zero data messages" 0 r.Manager.data_messages

(* Regression: under AUTO, a full refresh must prime the annotations.
   Otherwise an entry inserted before the full refresh (NULL PrevAddr,
   absent from the chain) and deleted after it vanishes without leaving an
   anomaly, and the next differential refresh misses the deletion. *)
let test_manager_auto_full_then_differential_delete () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10 ()
      : Manager.refresh_report);
  (* Fresh insert, never fixed up... *)
  let ghost = Base_table.insert base (emp "Ghost" 1) in
  (* ...force AUTO to choose full (touch everything twice). *)
  List.iter
    (fun (addr, u) ->
      Base_table.update base addr u;
      Base_table.update base addr u)
    (Base_table.to_user_list base);
  let r = Manager.refresh m "s" in
  checkb "full chosen" true (r.Manager.method_used = Manager.Used_full);
  checkb "full also primed annotations" true (r.Manager.fixup_writes > 0);
  (* Now delete the ghost; the next (differential) refresh must see it. *)
  Base_table.delete base ghost;
  let r = Manager.refresh m "s" in
  checkb "differential chosen" true (r.Manager.method_used = Manager.Used_differential);
  Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal)))
    "deletion propagated" (expected_restricted base) (snap_tuples m "s")

let test_manager_errors () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  Alcotest.check_raises "unknown base" (Manager.Unknown_table "nope") (fun () ->
      ignore (Manager.create_snapshot m ~name:"s" ~base:"nope" () : Manager.refresh_report));
  ignore (Manager.create_snapshot m ~name:"s" ~base:"emp" () : Manager.refresh_report);
  Alcotest.check_raises "duplicate" (Manager.Duplicate_name "S") (fun () ->
      ignore (Manager.create_snapshot m ~name:"S" ~base:"emp" () : Manager.refresh_report));
  (match
     Manager.create_snapshot m ~name:"bad" ~base:"emp"
       ~restrict:Expr.(col "nosuch" <. int 1)
       ()
   with
  | exception Manager.Bad_definition _ -> ()
  | _ -> Alcotest.fail "ill-typed restriction accepted");
  (match Manager.create_snapshot m ~name:"bad2" ~base:"emp" ~projection:[ "ghost" ] () with
  | exception Manager.Bad_definition _ -> ()
  | _ -> Alcotest.fail "bad projection accepted");
  Alcotest.check_raises "unknown refresh" (Manager.Unknown_snapshot "ghost") (fun () ->
      ignore (Manager.refresh m "ghost" : Manager.refresh_report));
  Manager.drop_snapshot m "s";
  Alcotest.check_raises "dropped" (Manager.Unknown_snapshot "s") (fun () ->
      ignore (Manager.refresh m "s" : Manager.refresh_report))

let test_manager_estimates () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10 ()
      : Manager.refresh_report);
  let q = Manager.selectivity_estimate m "s" in
  checkb "measured selectivity 5/6" true (Float.abs (q -. (5.0 /. 6.0)) < 1e-9);
  let `Full f, `Differential d = Manager.estimate_refresh_messages m "s" in
  checkb "idle: differential cheaper" true (d < f)

(* ------------------------------------------------------------------ *)
(* ASAP propagation *)

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

let mk_asap policy =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let link = Link.create ~name:"asap" () in
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  Link.attach link (Snapshot_table.apply_bytes snap);
  let asap =
    Asap.attach ~base ~link ~restrict:(fun t -> salary t < 10) ~project:Fun.id ~policy ()
  in
  (base, link, snap, asap)

let test_asap_propagates_immediately () =
  let base, _, snap, asap = mk_asap Asap.Buffer in
  let a = Base_table.insert base (emp "a" 5) in
  ignore (Base_table.insert base (emp "rich" 50) : Addr.t);
  checki "one qualified change sent" 1 (Asap.sent asap);
  checki "snapshot has it already" 1 (Snapshot_table.count snap);
  Base_table.update base a (emp "a" 50);
  checkb "leaving qualification removes" true (Snapshot_table.get snap a = None)

let test_asap_buffers_when_down () =
  let base, link, snap, asap = mk_asap Asap.Buffer in
  let a = Base_table.insert base (emp "a" 5) in
  Link.set_up link false;
  Base_table.update base a (emp "a" 6);
  Base_table.update base a (emp "a" 7);
  checki "buffered" 2 (Asap.pending asap);
  checkb "snapshot stale" true (Tuple.equal (Option.get (Snapshot_table.get snap a)) (emp "a" 5));
  Link.set_up link true;
  Asap.flush asap;
  checki "drained" 0 (Asap.pending asap);
  checkb "caught up" true (Tuple.equal (Option.get (Snapshot_table.get snap a)) (emp "a" 7))

let test_asap_rejects_when_down () =
  let base, link, snap, asap = mk_asap Asap.Reject in
  let a = Base_table.insert base (emp "a" 5) in
  Link.set_up link false;
  Base_table.update base a (emp "a" 6);
  checki "rejected" 1 (Asap.rejected asap);
  Link.set_up link true;
  Asap.flush asap;
  (* The change is LOST: the snapshot silently diverges (the paper's
     warning about the reject policy). *)
  checkb "diverged" true (Tuple.equal (Option.get (Snapshot_table.get snap a)) (emp "a" 5))

let test_asap_ordering_preserved_through_buffer () =
  let base, link, snap, asap = mk_asap Asap.Buffer in
  Link.set_up link false;
  let a = Base_table.insert base (emp "a" 1) in
  Base_table.update base a (emp "a" 2);
  Base_table.delete base a;
  let b = Base_table.insert base (emp "b" 3) in
  Link.set_up link true;
  Asap.flush asap;
  checkb "final state correct" true
    (Snapshot_table.get snap a = None || a = b);
  checkb "b present" true (Snapshot_table.get snap b <> None);
  checki "nothing pending" 0 (Asap.pending asap)

let suite =
  [
    Alcotest.test_case "snapshot upsert/remove" `Quick test_snapshot_table_upsert_remove;
    Alcotest.test_case "snapshot entry range" `Quick test_snapshot_table_entry_range_delete;
    Alcotest.test_case "snapshot tail/region/clear" `Quick test_snapshot_table_tail_and_region;
    Alcotest.test_case "snapshot snaptime" `Quick test_snapshot_table_snaptime_and_bytes;
    Alcotest.test_case "manager create" `Quick test_manager_create_populates;
    Alcotest.test_case "manager differential" `Quick test_manager_differential_refresh_tracks;
    Alcotest.test_case "manager auto" `Quick test_manager_auto_selects_full_under_churn;
    Alcotest.test_case "manager auto full-then-diff delete" `Quick
      test_manager_auto_full_then_differential_delete;
    Alcotest.test_case "manager projection" `Quick test_manager_projection;
    Alcotest.test_case "manager ideal" `Quick test_manager_ideal_method;
    Alcotest.test_case "manager log-based" `Quick test_manager_log_based_method;
    Alcotest.test_case "manager log-based needs wal" `Quick test_manager_log_based_requires_wal;
    Alcotest.test_case "manager log-based truncation fallback" `Quick
      test_manager_log_based_truncation_fallback;
    Alcotest.test_case "manager multi-snapshot" `Quick test_manager_multiple_snapshots_independent;
    Alcotest.test_case "manager tail suppression" `Quick test_manager_tail_suppression_option;
    Alcotest.test_case "manager errors" `Quick test_manager_errors;
    Alcotest.test_case "manager estimates" `Quick test_manager_estimates;
    Alcotest.test_case "asap immediate" `Quick test_asap_propagates_immediately;
    Alcotest.test_case "asap buffer" `Quick test_asap_buffers_when_down;
    Alcotest.test_case "asap reject" `Quick test_asap_rejects_when_down;
    Alcotest.test_case "asap ordering" `Quick test_asap_ordering_preserved_through_buffer;
  ]

(* Appended: control-path accounting. *)
let test_request_protocol_accounted () =
  let m, base, _ = mk_manager () in
  ignore (populate base);
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:restrict_lt10 ()
      : Manager.refresh_report);
  let req = Manager.snapshot_request_link m "s" in
  let st0 = Link.stats req in
  checki "one Register at create" 1 st0.Link.messages;
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  let st = Link.stats req in
  checki "a Request per refresh" 3 st.Link.messages;
  checkb "bytes accounted" true (st.Link.bytes > st0.Link.bytes)

let suite = suite @ [ Alcotest.test_case "request protocol" `Quick test_request_protocol_accounted ]

(* Appended: link timing simulation. *)
let test_link_simulated_time () =
  let link = Link.create ~header_bytes:0 ~latency_us:100.0 ~bytes_per_sec:1000.0 () in
  Link.attach link (fun _ _ -> ());
  Link.send link (Bytes.create 500);  (* 100us + 500/1000 s = 100us + 500_000us *)
  Alcotest.(check (float 1.0)) "one send" 500_100.0 (Link.simulated_time_us link);
  Link.send link (Bytes.create 500);
  Alcotest.(check (float 1.0)) "accumulates" 1_000_200.0 (Link.simulated_time_us link);
  (* Default link has no simulated cost. *)
  let free = Link.create () in
  Link.attach free (fun _ _ -> ());
  Link.send free (Bytes.create 500);
  Alcotest.(check (float 1e-9)) "free link" 0.0 (Link.simulated_time_us free)

let suite = suite @ [ Alcotest.test_case "link simulated time" `Quick test_link_simulated_time ]

(* Appended: group refresh routing.  refresh_all shares one scan among the
   members of each base table that scan it (full and differential) and
   leaves the rest solo; the per-member streams still commit
   independently and the shared scan decodes each page once. *)
let test_refresh_all_routing () =
  let clock = Clock.create () in
  let base = Base_table.create ~page_size:256 ~name:"emp" ~clock emp_schema in
  let other = Base_table.create ~page_size:256 ~name:"dept" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  Manager.register_base m other;
  for i = 0 to 29 do
    ignore (Base_table.insert base (emp (Printf.sprintf "e%d" i) (i mod 20)) : Addr.t);
    ignore (Base_table.insert other (emp (Printf.sprintf "d%d" i) (i mod 20)) : Addr.t)
  done;
  let mk name base method_ th =
    ignore
      (Manager.create_snapshot m ~name ~base ~method_
         ~restrict:Expr.(col "salary" <. int th)
         ()
        : Manager.refresh_report)
  in
  mk "d1" "emp" Manager.Differential 10;
  mk "d2" "emp" Manager.Differential 15;
  mk "d3" "emp" Manager.Differential 20;
  mk "f1" "emp" Manager.Full 10;
  mk "o1" "dept" Manager.Differential 10;
  (* Touch both tables so the refreshes have work. *)
  let first_addr b = fst (List.hd (Base_table.to_user_list b)) in
  Base_table.update base (first_addr base) (emp "upd" 1);
  Base_table.update other (first_addr other) (emp "upd" 1);
  let results = Manager.refresh_all m in
  checki "five results" 5 (List.length results);
  let report name =
    match List.assoc name results with
    | Ok r -> r
    | Error e -> raise e
  in
  (* The full member scans the table too, so it rides the same group. *)
  List.iter
    (fun n -> checki (n ^ " in a group of 4") 4 (report n).Manager.group_size)
    [ "d1"; "d2"; "d3"; "f1" ];
  checkb "f1 refreshed in full" true ((report "f1").Manager.method_used = Manager.Used_full);
  checki "lone differential on dept solo" 1 (report "o1").Manager.group_size;
  (* The group shares the scan: the siblings were charged the same pages a
     solo scan would touch, yet a refresh of all four cannot have decoded
     more than one scan's worth of pages.  The full member decodes every
     page, none of which is empty. *)
  let total_pages = Base_table.data_pages base in
  List.iter
    (fun n -> checkb (n ^ " decodes bounded by table") true
        ((report n).Manager.pages_decoded <= total_pages))
    [ "d1"; "d2"; "d3" ];
  checki "f1 decodes every page" total_pages (report "f1").Manager.pages_decoded;
  (* All five snapshots faithful. *)
  List.iter
    (fun (n, b, th) ->
      let want =
        List.filter_map
          (fun (a, u) ->
            match Tuple.get u 1 with
            | Value.Int s when Int64.to_int s < th -> Some (a, u)
            | _ -> None)
          (Base_table.to_user_list b)
      in
      checkb (n ^ " faithful") true
        (Snapshot_table.contents (Manager.snapshot_table m n) = want))
    [ ("d1", base, 10); ("d2", base, 15); ("d3", base, 20); ("f1", base, 10);
      ("o1", other, 10) ];
  (* refresh ~group refreshes the named snapshot with its siblings. *)
  Base_table.update base (first_addr base) (emp "upd2" 2);
  let r = Manager.refresh ~group:true m "d2" in
  checki "named snapshot rode a group" 4 r.Manager.group_size;
  (* ... and its siblings were refreshed too (their snaptimes advanced). *)
  let r3 = Manager.refresh m "d3" in
  checki "sibling had nothing left to scan (just Tail)" 1 r3.Manager.data_messages

let suite = suite @ [ Alcotest.test_case "refresh_all group routing" `Quick test_refresh_all_routing ]

(* A full refresh of a deferred-mode base is one table scan: the fix-up
   that primes the annotations runs in the same page load as the scan, so
   the population pins every data page exactly once.  The selectivity is
   given, so no sampling pass pins a page. *)
let test_full_refresh_pins_each_page_once () =
  let clock = Clock.create () in
  let base =
    Base_table.create ~mode:Base_table.Deferred ~page_size:256 ~name:"emp" ~clock emp_schema
  in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 199 do
    ignore (Base_table.insert base (emp (Printf.sprintf "e%d" i) (i mod 20)) : Addr.t)
  done;
  let pool = Base_table.pool base in
  let pins () =
    let s = Buffer_pool.stats pool in
    s.Buffer_pool.hits + s.Buffer_pool.misses
  in
  let before = pins () in
  let r =
    Manager.create_snapshot m ~name:"f" ~base:"emp" ~method_:Manager.Full ~selectivity:0.5
      ~restrict:restrict_lt10 ()
  in
  checki "one pin per data page" (Base_table.data_pages base) (pins () - before);
  checki "every qualified row sent" 100 r.Manager.data_messages;
  (* The pass restored the annotations: a second fix-up finds nothing. *)
  checki "annotations primed" 0
    (Fixup.run base ~fixup_time:(Clock.tick clock)).Fixup.writes

let suite =
  suite
  @ [ Alcotest.test_case "full refresh pins each page once" `Quick
        test_full_refresh_pins_each_page_once ]

(* The prune cache a full pass fills is safe to skip from: after a FULL
   population on a deferred base, a differential refresh skips the pages
   nothing touched yet still sends a delete on a page the full pass
   cached. *)
let test_full_pass_prune_cache_misses_no_delete () =
  let clock = Clock.create () in
  let base =
    Base_table.create ~mode:Base_table.Deferred ~page_size:256 ~name:"emp" ~clock emp_schema
  in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 199 do
    ignore (Base_table.insert base (emp (Printf.sprintf "e%d" i) (i mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~method_:Manager.Full ~selectivity:0.5
       ~restrict:restrict_lt10 ()
      : Manager.refresh_report);
  Manager.set_method m "s" Manager.Differential;
  let qualified =
    List.filter
      (fun (_, u) ->
        match Tuple.get u 1 with Value.Int s -> Int64.to_int s < 10 | _ -> false)
      (Base_table.to_user_list base)
  in
  let victim = fst (List.nth qualified (List.length qualified / 2)) in
  Base_table.delete base victim;
  let r = Manager.refresh m "s" in
  checki "only the delete is sent (Remove + Tail)" 2 r.Manager.data_messages;
  checkb "untouched pages skipped" true (r.Manager.entries_skipped > 0);
  let table = Manager.snapshot_table m "s" in
  checkb "the deleted row left the snapshot" true (Snapshot_table.get table victim = None);
  checki "the rest stayed" (List.length qualified - 1) (Snapshot_table.count table)

let suite =
  suite
  @ [ Alcotest.test_case "full pass prune cache misses no delete" `Quick
        test_full_pass_prune_cache_misses_no_delete ]
