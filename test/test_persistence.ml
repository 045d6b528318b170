(* Snapshot-site persistence and DUMP/restore round-trips. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Database = Snapdiff_sql.Database

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
  let path = Filename.temp_file "snapdiff_snap" ".db" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* A remote snapshot site persists its replica and SnapTime; after a
   restart, differential refresh resumes from exactly where it left off. *)
let test_snapshot_survives_restart () =
  with_tmp_file (fun path ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let a_bruce = Base_table.insert base (emp "Bruce" 15) in
      let _ = Base_table.insert base (emp "Hamid" 9) in
      let a_paul = Base_table.insert base (emp "Paul" 8) in
      ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
      let restrict t = salary t < 10 in
      (* Session 1 at the snapshot site. *)
      let persisted_snaptime =
        let store = Page_store.open_file ~page_size:1024 path in
        let pool = Buffer_pool.create ~frames:8 store in
        let snap = Snapshot_table.on_pool ~name:"s" ~schema:emp_schema pool in
        let msgs = ref [] in
        ignore
          (Differential.refresh ~base ~snaptime:(Snapshot_table.snaptime snap) ~restrict:(Annotations.user_pred restrict)
             ~xmit:(fun m -> msgs := m :: !msgs)
             ()
            : Differential.report);
        List.iter (Snapshot_table.apply snap) (List.rev !msgs);
        checki "populated" 2 (Snapshot_table.count snap);
        Snapshot_table.flush snap;
        Page_store.close store;
        Snapshot_table.snaptime snap
      in
      (* Base keeps changing while the site is down. *)
      Base_table.update base a_bruce (emp "Bruce" 5);
      Base_table.delete base a_paul;
      (* Session 2: reopen with the recorded snaptime; one differential
         refresh catches up. *)
      let store = Page_store.open_file path in
      let pool = Buffer_pool.create ~frames:8 store in
      let snap =
        Snapshot_table.on_pool ~snaptime:persisted_snaptime ~name:"s" ~schema:emp_schema pool
      in
      checki "contents recovered" 2 (Snapshot_table.count snap);
      checkb "index rebuilt + valid" true (Snapshot_table.validate snap = Ok ());
      let msgs = ref [] in
      let r =
        Differential.refresh ~base ~snaptime:(Snapshot_table.snaptime snap) ~restrict:(Annotations.user_pred restrict)
          ~xmit:(fun m -> msgs := m :: !msgs)
          ()
      in
      List.iter (Snapshot_table.apply snap) (List.rev !msgs);
      checkb "small differential catch-up (not a full resend)" true
        (r.Differential.data_messages <= 3);
      Alcotest.(check (list (Alcotest.pair Alcotest.int tuple)))
        "caught up"
        (List.filter (fun (_, u) -> restrict u) (Base_table.to_user_list base))
        (Snapshot_table.contents snap);
      Page_store.close store)

let rows_of = function
  | Database.Rows (_, rows) -> rows
  | _ -> Alcotest.fail "expected rows"

let test_dump_restore_roundtrip () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  ignore (exec "CREATE TABLE emp (name STRING NOT NULL, dept STRING, salary INT NOT NULL)");
  ignore
    (exec
       "INSERT INTO emp VALUES ('Br''uce', 'db', 15), ('Laura', NULL, 6), ('Hamid', 'os', 9)");
  ignore (exec "CREATE TABLE dept (dname STRING NOT NULL, floor INT NOT NULL)");
  ignore (exec "INSERT INTO dept VALUES ('db', 3), ('os', 2)");
  ignore
    (exec "CREATE SNAPSHOT lowpay AS SELECT name, salary FROM emp WHERE salary < 10 \
           REFRESH DIFFERENTIAL");
  ignore (exec "CREATE INDEX ON lowpay (salary)");
  ignore (exec "CREATE SNAPSHOT joined AS SELECT name, floor FROM emp, dept WHERE dept = dname");
  ignore (exec "CREATE SNAPSHOT cheap AS SELECT name FROM lowpay WHERE salary < 8");
  let script =
    match exec "DUMP" with
    | Database.Info lines -> String.concat "\n" lines
    | _ -> Alcotest.fail "dump"
  in
  (* Restore into a fresh database. *)
  let db2 = Database.create () in
  (match Database.run_script db2 script with
  | (_ : (Snapdiff_sql.Ast.stmt * Database.result) list) -> ()
  | exception Database.Sql_error m -> Alcotest.failf "restore failed: %s\n%s" m script);
  let q db s = rows_of (Database.run db s) in
  let same s = Alcotest.(check (list (Alcotest.testable Tuple.pp Tuple.equal))) s (q db s) (q db2 s) in
  same "SELECT * FROM emp ORDER BY name";
  same "SELECT * FROM dept ORDER BY dname";
  same "SELECT * FROM lowpay ORDER BY name";
  same "SELECT * FROM joined ORDER BY name";
  same "SELECT * FROM cheap ORDER BY name";
  (* The restored lowpay still has its index and its method. *)
  (match Database.run db2 "EXPLAIN SNAPSHOT lowpay" with
  | Database.Info lines ->
    checkb "index restored" true
      (List.exists
         (fun l ->
           let has_sub needle hay =
             let ln = String.length needle and lh = String.length hay in
             let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
             go 0
           in
           has_sub "salary" l && has_sub "indexes" l)
         lines)
  | _ -> Alcotest.fail "explain");
  (* And the restored database dumps to the same script (fixpoint). *)
  match Database.run db2 "DUMP" with
  | Database.Info lines2 -> Alcotest.(check string) "dump fixpoint" script (String.concat "\n" lines2)
  | _ -> Alcotest.fail "dump2"

let test_dump_empty_database () =
  let db = Database.create () in
  match Database.run db "DUMP" with
  | Database.Info lines -> checkb "empty-ish" true (List.for_all (fun l -> String.trim l = "") lines)
  | _ -> Alcotest.fail "dump"

let suite =
  [
    Alcotest.test_case "snapshot survives restart" `Quick test_snapshot_survives_restart;
    Alcotest.test_case "dump/restore roundtrip" `Quick test_dump_restore_roundtrip;
    Alcotest.test_case "dump empty" `Quick test_dump_empty_database;
  ]
