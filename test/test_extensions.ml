(* Tests for the paper-mandated extensions: secondary indexes on snapshots,
   cascaded snapshots (snapshots as base tables for other snapshots),
   multi-table query snapshots (full re-evaluation), and the SQL surface
   for all three. *)

open Snapdiff_storage
open Snapdiff_core
module Clock = Snapdiff_txn.Clock
module Expr = Snapdiff_expr.Expr
module Database = Snapdiff_sql.Database

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let tuple = Alcotest.testable Tuple.pp Tuple.equal

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

(* ------------------------------------------------------------------ *)
(* Secondary indexes on snapshot tables *)

let filled_snapshot () =
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  List.iteri
    (fun i (n, sal) ->
      Snapshot_table.apply s (Refresh_msg.Upsert { addr = i + 1; row = Row.of_tuple (emp n sal) }))
    [ ("a", 5); ("b", 9); ("c", 5); ("d", 7); ("e", 9) ];
  s

let test_index_lookup () =
  let s = filled_snapshot () in
  Snapshot_table.create_index s ~column:"salary";
  Alcotest.(check (list int)) "two with salary 5" [ 1; 3 ]
    (Snapshot_table.lookup s ~column:"salary" (Value.int 5));
  Alcotest.(check (list int)) "none with salary 6" []
    (Snapshot_table.lookup s ~column:"salary" (Value.int 6));
  Alcotest.(check (list int)) "range 6..9" [ 2; 4; 5 ]
    (Snapshot_table.lookup_range s ~column:"salary" ~lo:(Value.int 6) ~hi:(Value.int 9) ());
  checkb "has index" true (Snapshot_table.has_index s ~column:"salary");
  Alcotest.(check (list string)) "listed" [ "salary" ] (Snapshot_table.indexed_columns s)

let test_index_maintained_through_apply () =
  let s = filled_snapshot () in
  Snapshot_table.create_index s ~column:"salary";
  (* Update: entry 1 moves from salary 5 to 9. *)
  Snapshot_table.apply s (Refresh_msg.Upsert { addr = 1; row = Row.of_tuple (emp "a" 9) });
  Alcotest.(check (list int)) "5 bucket shrank" [ 3 ]
    (Snapshot_table.lookup s ~column:"salary" (Value.int 5));
  Alcotest.(check (list int)) "9 bucket grew" [ 1; 2; 5 ]
    (Snapshot_table.lookup s ~column:"salary" (Value.int 9));
  (* Range deletion via an Entry message. *)
  Snapshot_table.apply s
    (Refresh_msg.Entry { addr = 4; prev_qual = 1; row = Row.of_tuple (emp "d" 7) });
  Alcotest.(check (list int)) "2,3 deleted from buckets" [ 1; 5 ]
    (Snapshot_table.lookup s ~column:"salary" (Value.int 9));
  (* Clear wipes the index too. *)
  Snapshot_table.apply s Refresh_msg.Clear;
  Alcotest.(check (list int)) "empty" [] (Snapshot_table.lookup s ~column:"salary" (Value.int 7))

let test_index_backfill_and_errors () =
  let s = filled_snapshot () in
  (* Created after the data exists: backfilled. *)
  Snapshot_table.create_index s ~column:"name";
  Alcotest.(check (list int)) "backfilled" [ 3 ]
    (Snapshot_table.lookup s ~column:"name" (Value.str "c"));
  (* Idempotent. *)
  Snapshot_table.create_index s ~column:"name";
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Snapshot_table.create_index: unknown column ghost") (fun () ->
      Snapshot_table.create_index s ~column:"ghost");
  Alcotest.check_raises "lookup without index"
    (Invalid_argument "Snapshot_table.lookup: no index on salary") (fun () ->
      ignore (Snapshot_table.lookup s ~column:"salary" (Value.int 5)))

(* ------------------------------------------------------------------ *)
(* Cascaded snapshots *)

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

(* Base -> snapshot (salary < 10) -> cascade (salary < 8, name only). *)
let cascade_setup () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  List.iter
    (fun (n, s) -> ignore (Base_table.insert base (emp n s) : Addr.t))
    [ ("Bruce", 15); ("Hamid", 9); ("Jack", 6); ("Mohan", 9); ("Paul", 8) ];
  ignore
    (Manager.create_snapshot m ~name:"lowpay" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 10)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let parent = Manager.snapshot_table m "lowpay" in
  let casc =
    Cascade.attach ~upstream:parent ~name:"verylow"
      ~restrict:(fun t -> salary t < 8)
      ~projection:[ "name" ] ()
  in
  ignore (Cascade.refresh casc : Manager.refresh_report);
  (base, m, parent, casc)

let names_of table =
  List.map (fun t -> Value.to_string (Tuple.get t 0)) (Snapshot_table.tuples table)

let find_emp base name =
  fst (List.find (fun (_, u) -> Tuple.get u 0 = Value.str name) (Base_table.to_user_list base))

(* The child equals the restriction and projection of its parent's
   committed image, and holds the parent's last epoch. *)
let check_faithful what parent casc =
  let restricted =
    List.filter_map
      (fun (a, t) -> if salary t < 8 then Some (a, Tuple.make [ Tuple.get t 0 ]) else None)
      (Snapshot_table.contents parent)
  in
  checkb what true (Snapshot_table.contents (Cascade.table casc) = restricted);
  checki (what ^ ": holds the parent's last epoch") (Snapshot_table.last_committed_epoch parent)
    (Cascade.held_epoch casc)

let test_cascade_initial_sync () =
  let _, _, parent, casc = cascade_setup () in
  Alcotest.(check (list string)) "initial" [ "'Jack'" ] (names_of (Cascade.table casc));
  (* The new child is empty: the diff against the empty image sends its
     one row and the Snaptime, and no Clear. *)
  checki "one row and the Snaptime" 2
    (Snapdiff_net.Link.stats (Cascade.link casc)).Snapdiff_net.Link.messages;
  checkb "projected to one column" true
    (List.for_all (fun t -> Array.length t = 1) (Snapshot_table.tuples (Cascade.table casc)));
  check_faithful "synchronized" parent casc

let test_cascade_tracks_parent_refreshes () =
  let base, m, parent, casc = cascade_setup () in
  (* Paul drops to 5 (enters cascade), Jack rises to 9 (leaves cascade but
     stays in parent), Mohan leaves both. *)
  Base_table.update base (find_emp base "Paul") (emp "Paul" 5);
  Base_table.update base (find_emp base "Jack") (emp "Jack" 9);
  Base_table.update base (find_emp base "Mohan") (emp "Mohan" 20);
  ignore (Manager.refresh m "lowpay" : Manager.refresh_report);
  Alcotest.(check (list string)) "parent state" [ "'Hamid'"; "'Jack'"; "'Paul'" ]
    (List.sort compare (names_of parent));
  (* The parent's refresh does no work for the child: it stays on its
     held epoch until its own refresh. *)
  Alcotest.(check (list string)) "unchanged until its own refresh" [ "'Jack'" ]
    (names_of (Cascade.table casc));
  let r = Cascade.refresh casc in
  Alcotest.(check (list string)) "cascade state" [ "'Paul'" ] (names_of (Cascade.table casc));
  checki "Jack's Remove and Paul's Upsert" 2 r.Manager.data_messages;
  checkb "the diff compared the parent's copied page" true
    (r.Manager.entries_scanned > 0 && r.Manager.entries_scanned <= 2 * 64);
  checki "snaptime inherited" (Snapshot_table.snaptime parent)
    (Snapshot_table.snaptime (Cascade.table casc));
  checkb "valid" true (Snapshot_table.validate (Cascade.table casc) = Ok ());
  check_faithful "after the refresh" parent casc;
  (* A refresh that sends k > 64 data messages reaches the child in
     ceil(k/64) batch frames and its Snaptime, as a manager refresh's
     stream is framed. *)
  let module Link = Snapdiff_net.Link in
  for i = 1 to 100 do
    ignore (Base_table.insert base (emp (Printf.sprintf "n%d" i) 1) : Addr.t)
  done;
  ignore (Manager.refresh m "lowpay" : Manager.refresh_report);
  let r = Cascade.refresh casc and k = 100 in
  checki "one message per new row" k r.Manager.data_messages;
  checki "ceil(k/64) data frames and the Snaptime"
    (((k + Refresh_msg.default_batch_size - 1) / Refresh_msg.default_batch_size) + 1)
    r.Manager.link_messages;
  checki "every sent message counted" (k + 1) r.Manager.link_logical_messages;
  checki "all arrived" 101 (Snapshot_table.count (Cascade.table casc))

(* One update in a 5,000-row parent: the diff skips every page the two
   images share, so it compares the rows of the one copied page, and
   sends one message only if the child's row changed. *)
let test_cascade_diff_reads_copied_pages () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  let addrs =
    Array.init 5_000 (fun i -> Base_table.insert base (emp (Printf.sprintf "e%d" i) (i mod 10)))
  in
  ignore
    (Manager.create_snapshot m ~name:"all" ~base:"emp" ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let parent = Manager.snapshot_table m "all" in
  let casc = Cascade.attach ~upstream:parent ~name:"low" ~restrict:(fun t -> salary t < 5) () in
  let r = Cascade.refresh casc in
  checki "attach compares every parent row" 5_000 r.Manager.entries_scanned;
  checki "and sends each child row" 2_500 r.Manager.data_messages;
  let step what addr row ~sent =
    Base_table.update base addr row;
    ignore (Manager.refresh m "all" : Manager.refresh_report);
    let r = Cascade.refresh casc in
    checkb (what ^ ": the rows of the copied page only") true
      (r.Manager.entries_scanned > 0 && r.Manager.entries_scanned <= 2 * 64);
    checki (what ^ ": the child-visible changes") sent r.Manager.data_messages;
    checkb (what ^ ": child = restriction of parent") true
      (Snapshot_table.contents (Cascade.table casc)
      = List.filter (fun (_, t) -> salary t < 5) (Snapshot_table.contents parent))
  in
  step "a child row changes" addrs.(1_234) (emp "moved" 3) ~sent:1;
  step "a row the child does not hold" addrs.(1_239) (emp "hidden" 9) ~sent:0;
  step "a row leaves the child" addrs.(4_001) (emp "gone" 7) ~sent:1

let test_cascade_of_cascade () =
  let base, m, _, casc = cascade_setup () in
  let level2 =
    Cascade.attach ~upstream:(Cascade.table casc) ~name:"level2"
      ~restrict:(fun t -> Tuple.get t 0 <> Value.str "Jack")
      ()
  in
  ignore (Cascade.refresh level2 : Manager.refresh_report);
  checki "initially empty (only Jack qualified upstream)" 0
    (Snapshot_table.count (Cascade.table level2));
  Base_table.update base (find_emp base "Paul") (emp "Paul" 3);
  ignore (Manager.refresh m "lowpay" : Manager.refresh_report);
  ignore (Cascade.refresh casc : Manager.refresh_report);
  ignore (Cascade.refresh level2 : Manager.refresh_report);
  Alcotest.(check (list string)) "propagated two levels" [ "'Paul'" ]
    (names_of (Cascade.table level2));
  checki "level 2 holds its parent's last epoch"
    (Snapshot_table.last_committed_epoch (Cascade.table casc))
    (Cascade.held_epoch level2)

(* The child's link fails part way through its stream.  The child keeps
   its committed image and its held parent epoch, and the parent's
   refreshes go on committing; once the link is back, the next refresh
   diffs from the held epoch and sends exactly the rows that changed
   since, not the parent's whole image. *)
let test_cascade_link_down_mid_commit () =
  let base, m, parent, casc = cascade_setup () in
  let child = Cascade.table casc in
  let link = Cascade.link casc in
  let module Link = Snapdiff_net.Link in
  let refresh_parent () =
    let e = Snapshot_table.last_committed_epoch parent in
    let r = Manager.refresh m "lowpay" in
    checki "the parent commits at its first attempt" 1 r.Manager.attempts;
    checki "the parent's epoch advances by one" (e + 1) (Snapshot_table.last_committed_epoch parent)
  in
  let image0 = Snapshot_table.contents child and time0 = Snapshot_table.snaptime child in
  let held0 = Cascade.held_epoch casc in
  let kept what r =
    checki (what ^ ": one abort") 1 r.Manager.aborts;
    checkb (what ^ ": the child keeps its committed image") true
      (Snapshot_table.contents child = image0);
    checki (what ^ ": and its SnapTime") time0 (Snapshot_table.snaptime child);
    checkb (what ^ ": no epoch left open") true (Snapshot_table.open_epoch child = None);
    checki (what ^ ": and its held epoch") held0 (Cascade.held_epoch casc)
  in
  (* Paul enters the child; his row's frame gets through and the
     Snaptime's send fails. *)
  Base_table.update base (find_emp base "Paul") (emp "Paul" 5);
  refresh_parent ();
  Link.inject_faults link ~fail_after:1 ~seed:0 ();
  kept "cut at the Snaptime" (Cascade.refresh casc);
  (* Hamid enters too, while the link is down. *)
  Link.clear_faults link;
  Link.set_up link false;
  Base_table.update base (find_emp base "Hamid") (emp "Hamid" 3);
  refresh_parent ();
  kept "link down" (Cascade.refresh casc);
  (* Back up: the diff from the held epoch sends Paul and Hamid. *)
  Link.set_up link true;
  refresh_parent ();
  let r = Cascade.refresh casc in
  checki "commits" 0 r.Manager.aborts;
  checki "the rows changed since the held epoch" 2 r.Manager.data_messages;
  checkb "not the parent's whole image" true
    (r.Manager.data_messages < Snapshot_table.count parent);
  Alcotest.(check (list string)) "both entered" [ "'Hamid'"; "'Jack'"; "'Paul'" ]
    (List.sort compare (names_of child));
  check_faithful "child = restriction of parent after the link is back" parent casc;
  (* A one-shot outage: the next refresh alone sends the change. *)
  Base_table.update base (find_emp base "Mohan") (emp "Mohan" 2);
  refresh_parent ();
  Link.inject_faults link ~fail_after:0 ~seed:1 ();
  checki "the outage aborts the refresh" 1 (Cascade.refresh casc).Manager.aborts;
  let r = Cascade.refresh casc in
  checki "the retry sends Mohan alone" 1 r.Manager.data_messages;
  check_faithful "child = restriction of parent after a one-shot outage" parent casc;
  checkb "valid" true (Snapshot_table.validate child = Ok ())

(* The held epoch is a read transaction on the parent whose pin names
   the child, and a child's refresh is its own [refresh] span, outside
   the parent's [refresh.apply] spans. *)
let test_cascade_lease_and_span () =
  let module Trace = Snapdiff_obs.Trace in
  let base, m, parent, casc = cascade_setup () in
  let leases () =
    List.filter_map
      (fun (h, e) -> if h = "cascade:verylow" then Some e else None)
      (Snapshot_table.holders parent)
  in
  Alcotest.(check (list int)) "one lease, at the held epoch" [ Cascade.held_epoch casc ] (leases ());
  Trace.enable Trace.Memory;
  Fun.protect ~finally:Trace.disable (fun () ->
      Base_table.update base (find_emp base "Paul") (emp "Paul" 5);
      ignore (Manager.refresh m "lowpay" : Manager.refresh_report);
      ignore (Cascade.refresh casc : Manager.refresh_report));
  Alcotest.(check (list int)) "moved to the new epoch"
    [ Snapshot_table.last_committed_epoch parent ] (leases ());
  let spans name snapshot =
    List.filter
      (fun r -> r.Trace.name = name && List.assoc_opt "snapshot" r.Trace.attrs = Some snapshot)
      (Trace.recent ())
  in
  let inside (r : Trace.record) (outer : Trace.record) =
    r.start_us >= outer.start_us && r.start_us +. r.dur_us <= outer.start_us +. outer.dur_us
  in
  match spans "refresh" "verylow" with
  | [ own ] ->
    checkb "the parent's replay spans do not hold it" true
      (List.for_all (fun apply -> not (inside own apply)) (spans "refresh.apply" "lowpay"));
    checkb "the child's replay runs inside it" true
      (List.exists (fun apply -> inside apply own) (spans "refresh.apply" "verylow"))
  | spans -> Alcotest.failf "%d refresh spans for the child" (List.length spans)

(* Random base edits and refreshes of a two-level cascade (parent ->
   child -> level 2), with faults armed on either cascade link for the
   next round: a one-shot outage, loss, corruption, or a downed link.
   Each round refreshes the parent, then the child, then level 2.  A
   cascade refresh that commits leaves its level equal to the
   restriction of the image it pinned above, holding that level's last
   epoch; one that fails leaves its level's image as it was.  On clean
   links every refresh commits. *)
let test_cascade_property_faithful =
  let module Link = Snapdiff_net.Link in
  QCheck2.Test.make ~name:"cascade = restriction of parent" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40)
           (pair (int_range 0 4) (pair (int_range 0 1000) (int_range 0 19))))
        (int_range 0 20))
    (fun (script, threshold) ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let m = Manager.create () in
      Manager.register_base m base;
      for i = 0 to 5 do
        ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3)) : Addr.t)
      done;
      ignore
        (Manager.create_snapshot m ~name:"parent" ~base:"emp"
           ~restrict:Expr.(col "salary" <. int 14)
           ~method_:Manager.Differential ()
          : Manager.refresh_report);
      let parent = Manager.snapshot_table m "parent" in
      let below t = salary t < threshold and even t = salary t mod 2 = 0 in
      let casc = Cascade.attach ~upstream:parent ~name:"child" ~restrict:below () in
      let level2 = Cascade.attach ~upstream:(Cascade.table casc) ~name:"level2" ~restrict:even () in
      let levels = [ (parent, casc, below); (Cascade.table casc, level2, even) ] in
      let armed = ref [] in
      let refresh_level (up, c, f) =
        let prev = Snapshot_table.contents (Cascade.table c) in
        let r = Cascade.refresh c in
        let now = Snapshot_table.contents (Cascade.table c) in
        if r.Manager.aborts = 0 then
          now = List.filter (fun (_, t) -> f t) (Snapshot_table.contents up)
          && Cascade.held_epoch c = Snapshot_table.last_committed_epoch up
        else !armed <> [] && now = prev
      in
      let refresh () =
        ignore (Manager.refresh m "parent" : Manager.refresh_report);
        let ok = List.for_all refresh_level levels in
        List.iter
          (fun l ->
            Link.clear_faults l;
            Link.set_up l true)
          !armed;
        armed := [];
        ok
      in
      let n = ref 0 in
      let ok =
        List.for_all
          (fun (op, (pick, sal)) ->
            incr n;
            let live = Base_table.to_user_list base in
            match op with
            | 0 ->
              ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) sal) : Addr.t);
              true
            | 1 when live <> [] ->
              let addr = fst (List.nth live (pick mod List.length live)) in
              Base_table.update base addr (emp (Printf.sprintf "u%d" !n) sal);
              true
            | 2 when live <> [] ->
              let addr = fst (List.nth live (pick mod List.length live)) in
              Base_table.delete base addr;
              true
            | 4 ->
              let l = Cascade.link (if pick mod 2 = 0 then casc else level2) in
              armed := l :: !armed;
              (match pick / 2 mod 4 with
              | 0 -> Link.inject_faults l ~fail_after:(sal mod 6) ~seed:pick ()
              | 1 -> Link.inject_faults l ~drop_prob:0.3 ~seed:pick ()
              | 2 -> Link.inject_faults l ~corrupt_prob:0.3 ~seed:pick ()
              | _ -> Link.set_up l false);
              true
            | _ -> refresh ())
          script
      in
      (* The last refresh may be faulted; the one after it is clean. *)
      let last = refresh () in
      ok && last && refresh ())

(* ------------------------------------------------------------------ *)
(* SQL: joins, query snapshots, cascades, CREATE INDEX *)

let setup_db () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  ignore (exec "CREATE TABLE emp (name STRING NOT NULL, dept STRING NOT NULL, salary INT NOT NULL)");
  ignore (exec "CREATE TABLE dept (dname STRING NOT NULL, floor INT NOT NULL)");
  ignore
    (exec
       "INSERT INTO emp VALUES ('Bruce','db',15), ('Laura','db',6), ('Hamid','os',9), \
        ('Paul','net',8)");
  ignore (exec "INSERT INTO dept VALUES ('db',3), ('os',2), ('net',1)");
  (db, exec)

let rows_of = function
  | Database.Rows (_, rows) -> rows
  | _ -> Alcotest.fail "expected rows"

let test_sql_join () =
  let _, exec = setup_db () in
  let rows =
    rows_of
      (exec
         "SELECT name, floor FROM emp, dept WHERE dept = dname AND salary < 10 ORDER BY name")
  in
  checki "three joined" 3 (List.length rows);
  (match rows with
  | first :: _ ->
    Alcotest.check tuple "Hamid on floor 2" (Tuple.make [ Value.str "Hamid"; Value.int 2 ]) first
  | [] -> Alcotest.fail "empty");
  (* Qualified references disambiguate. *)
  let rows = rows_of (exec "SELECT emp.name FROM emp, dept WHERE emp.dept = dept.dname") in
  checki "qualified join" 4 (List.length rows)

let test_sql_join_ambiguity () =
  let db, exec = setup_db () in
  ignore (exec "CREATE TABLE emp2 (name STRING NOT NULL, x INT)");
  match Database.run db "SELECT name FROM emp, emp2" with
  | exception Database.Sql_error m ->
    checkb "mentions ambiguity" true
      (String.length m > 0)
  | _ -> Alcotest.fail "ambiguous column accepted"

let test_sql_query_snapshot () =
  let db, exec = setup_db () in
  (match
     exec
       "CREATE SNAPSHOT roster AS SELECT name, floor FROM emp, dept \
        WHERE dept = dname AND salary < 10"
   with
  | Database.Refreshed r ->
    checki "three rows shipped" 3 r.Database.Manager.data_messages
  | _ -> Alcotest.fail "create");
  checki "queryable" 3 (List.length (rows_of (exec "SELECT * FROM roster")));
  (* Base changes; refresh re-evaluates the query. *)
  ignore (exec "UPDATE emp SET salary = 5 WHERE name = 'Bruce'");
  (match exec "REFRESH SNAPSHOT roster" with
  | Database.Refreshed r ->
    checkb "full re-evaluation" true
      (r.Database.Manager.method_used = Snapdiff_core.Manager.Used_full);
    checki "four now" 4 r.Database.Manager.data_messages
  | _ -> Alcotest.fail "refresh");
  checki "caught up" 4 (List.length (rows_of (exec "SELECT * FROM roster")));
  (* Differential refresh over several tables is refused, per the paper. *)
  (match
     Database.run db
       "CREATE SNAPSHOT bad AS SELECT name FROM emp, dept REFRESH DIFFERENTIAL"
   with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "multi-table differential accepted");
  (* Dropping a table a query snapshot uses is refused. *)
  match Database.run db "DROP TABLE dept" with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "dangling query snapshot"

let test_sql_cascade () =
  let db, exec = setup_db () in
  ignore (exec "CREATE SNAPSHOT lowpay AS SELECT * FROM emp WHERE salary < 10 REFRESH DIFFERENTIAL");
  ignore (exec "CREATE SNAPSHOT verylow AS SELECT name FROM lowpay WHERE salary < 8");
  checki "initial cascade" 1 (List.length (rows_of (exec "SELECT * FROM verylow")));
  ignore (exec "UPDATE emp SET salary = 4 WHERE name = 'Hamid'");
  (* Refreshing the cascade refreshes its root and propagates. *)
  ignore (exec "REFRESH SNAPSHOT verylow");
  Alcotest.(check (list string)) "propagated" [ "'Hamid'"; "'Laura'" ]
    (List.sort compare
       (List.map (fun r -> Value.to_string (Tuple.get r 0)) (rows_of (exec "SELECT * FROM verylow"))));
  (* Cannot drop a parent that feeds a cascade. *)
  (match Database.run db "DROP SNAPSHOT lowpay" with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "dropped a cascade parent");
  ignore (exec "DROP SNAPSHOT verylow");
  match Database.run db "DROP SNAPSHOT lowpay" with
  | Database.Dropped _ -> ()
  | _ -> Alcotest.fail "drop after child gone"

(* REFRESH SNAPSHOT on a cascade reports its own stream: what it sent,
   what crossed its link, and the parent rows its diff compared — not
   its root's counts under its name. *)
let test_sql_cascade_report () =
  let db, exec = setup_db () in
  ignore (exec "CREATE SNAPSHOT p AS SELECT * FROM emp REFRESH DIFFERENTIAL");
  ignore (exec "CREATE SNAPSHOT c AS SELECT name FROM p WHERE salary < 7");
  let link = Database.snapshot_link db "c" in
  let parent = Manager.snapshot_table (Database.manager db) "p" in
  let refresh () =
    let before = Snapdiff_net.Link.stats link in
    match exec "REFRESH SNAPSHOT c" with
    | Database.Refreshed r ->
      let after = Snapdiff_net.Link.stats link in
      checkb "named for the cascade" true (r.Manager.snapshot = "c");
      checki "its own link's frames" (after.messages - before.messages) r.Manager.link_messages;
      checki "its own link's bytes" (after.bytes - before.bytes) r.Manager.link_bytes;
      checki "no fix-ups" 0 r.Manager.fixup_writes;
      checki "no pages decoded" 0 r.Manager.pages_decoded;
      checki "the diff compared the parent's one copied page" (Snapshot_table.count parent)
        r.Manager.entries_scanned;
      r
    | _ -> Alcotest.fail "REFRESH SNAPSHOT c did not refresh"
  in
  (* Two updates touch only rows c does not hold: its stream is the
     Snaptime alone. *)
  ignore (exec "UPDATE emp SET salary = 8 WHERE name = 'Hamid'");
  ignore (exec "UPDATE emp SET salary = 20 WHERE name = 'Paul'");
  let r = refresh () in
  checki "no data sent" 0 r.Manager.data_messages;
  checki "one frame, the Snaptime" 1 r.Manager.link_messages;
  checki "one logical message" 1 r.Manager.link_logical_messages;
  (* Hamid enters c. *)
  ignore (exec "UPDATE emp SET salary = 3 WHERE name = 'Hamid'");
  let r = refresh () in
  checki "one row sent" 1 r.Manager.data_messages;
  checki "the row and the Snaptime" 2 r.Manager.link_logical_messages;
  Alcotest.(check (list string)) "c holds Laura and Hamid" [ "'Hamid'"; "'Laura'" ]
    (List.sort compare
       (List.map (fun r -> Value.to_string (Tuple.get r 0)) (rows_of (exec "SELECT * FROM c"))))

(* DROP SNAPSHOT on a cascade releases its held parent epoch: no pin on
   the parent names it, and a parent refresh sends nothing on its
   link. *)
let test_sql_drop_cascade_releases_parent () =
  let db, exec = setup_db () in
  ignore (exec "CREATE SNAPSHOT p AS SELECT * FROM emp REFRESH DIFFERENTIAL");
  ignore (exec "CREATE SNAPSHOT c AS SELECT name FROM p WHERE salary < 7");
  let link = Database.snapshot_link db "c" in
  let parent = Manager.snapshot_table (Database.manager db) "p" in
  let holders () = List.map fst (Snapshot_table.holders parent) in
  Alcotest.(check (list string)) "c holds a parent epoch" [ "cascade:c" ] (holders ());
  ignore (exec "DROP SNAPSHOT c");
  Alcotest.(check (list string)) "no lease once dropped" [] (holders ());
  let before = Snapdiff_net.Link.stats link in
  ignore (exec "UPDATE emp SET salary = 3 WHERE name = 'Hamid'");
  ignore (exec "REFRESH SNAPSHOT p");
  checki "nothing sent to the dropped child" before.Snapdiff_net.Link.messages
    (Snapdiff_net.Link.stats link).Snapdiff_net.Link.messages

(* A query snapshot's refresh stream cut short by a link outage fails
   with [Sql_error] and leaves the snapshot on its previous image and
   SnapTime; the next refresh, on the healed link, commits. *)
let test_sql_query_snapshot_cut_short () =
  let db, exec = setup_db () in
  ignore
    (exec
       "CREATE SNAPSHOT roster AS SELECT name, floor FROM emp, dept \
        WHERE dept = dname AND salary < 10");
  let image () = List.sort compare (rows_of (exec "SELECT * FROM roster")) in
  let listing () = Database.render_result (exec "SHOW SNAPSHOTS") in
  let image0 = image () and listing0 = listing () in
  ignore (exec "UPDATE emp SET salary = 5 WHERE name = 'Bruce'");
  (* Clear gets through, the rows' batch frame does not. *)
  let link = Database.snapshot_link db "roster" in
  Snapdiff_net.Link.inject_faults link ~fail_after:1 ~seed:1 ();
  (match Database.run db "REFRESH SNAPSHOT roster" with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "a cut-short refresh reported success");
  checki "the outage hit" 1 (Snapdiff_net.Link.stats link).Snapdiff_net.Link.injected_failures;
  checkb "previous image kept" true (image () = image0);
  Alcotest.(check string) "previous row count and SnapTime kept" listing0 (listing ());
  (match exec "REFRESH SNAPSHOT roster" with
  | Database.Refreshed r -> checki "four rows shipped" 4 r.Manager.data_messages
  | _ -> Alcotest.fail "refresh on the healed link");
  checki "Bruce is in" 4 (List.length (image ()))

let test_sql_create_index_and_fast_path () =
  let db, exec = setup_db () in
  ignore (exec "CREATE SNAPSHOT s AS SELECT * FROM emp REFRESH DIFFERENTIAL");
  ignore (exec "CREATE INDEX ON s (dept)");
  checki "no index scans yet" 0 (Database.index_scans db);
  let rows = rows_of (exec "SELECT name FROM s WHERE dept = 'db' ORDER BY name") in
  checki "two in db" 2 (List.length rows);
  checki "served by the index" 1 (Database.index_scans db);
  (* Index stays correct across refreshes. *)
  ignore (exec "UPDATE emp SET dept = 'os' WHERE name = 'Laura'");
  ignore (exec "REFRESH SNAPSHOT s");
  let rows = rows_of (exec "SELECT name FROM s WHERE dept = 'db'") in
  checki "one left in db" 1 (List.length rows);
  checki "index scan again" 2 (Database.index_scans db);
  (* Errors. *)
  (match Database.run db "CREATE INDEX ON emp (dept)" with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "index on base table accepted");
  match Database.run db "CREATE INDEX ON s (ghost)" with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "index on ghost column accepted"

let test_sql_show_explain_extended () =
  let _, exec = setup_db () in
  ignore (exec "CREATE SNAPSHOT lowpay AS SELECT * FROM emp WHERE salary < 10");
  ignore (exec "CREATE SNAPSHOT roster AS SELECT name, floor FROM emp, dept WHERE dept = dname");
  ignore (exec "CREATE SNAPSHOT sub AS SELECT * FROM lowpay");
  (match exec "SHOW SNAPSHOTS" with
  | Database.Info lines -> checki "three listed" 3 (List.length lines)
  | _ -> Alcotest.fail "show");
  (match exec "EXPLAIN SNAPSHOT roster" with
  | Database.Info lines ->
    checkb "mentions re-evaluation" true
      (List.exists
         (fun l ->
           let has_sub needle hay =
             let ln = String.length needle and lh = String.length hay in
             let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
             go 0
           in
           has_sub "re-evaluation" l)
         lines)
  | _ -> Alcotest.fail "explain roster");
  match exec "EXPLAIN SNAPSHOT sub" with
  | Database.Info lines -> checkb "cascade explained" true (List.length lines >= 4)
  | _ -> Alcotest.fail "explain sub"

let suite =
  [
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    Alcotest.test_case "index maintained" `Quick test_index_maintained_through_apply;
    Alcotest.test_case "index backfill + errors" `Quick test_index_backfill_and_errors;
    Alcotest.test_case "cascade initial sync" `Quick test_cascade_initial_sync;
    Alcotest.test_case "cascade tracks parent" `Quick test_cascade_tracks_parent_refreshes;
    Alcotest.test_case "cascade diff reads only copied pages" `Quick
      test_cascade_diff_reads_copied_pages;
    Alcotest.test_case "cascade of cascade" `Quick test_cascade_of_cascade;
    Alcotest.test_case "cascade survives its link failing mid-commit" `Quick
      test_cascade_link_down_mid_commit;
    Alcotest.test_case "cascade lease names the child; own refresh span" `Quick
      test_cascade_lease_and_span;
    QCheck_alcotest.to_alcotest test_cascade_property_faithful;
    Alcotest.test_case "sql join" `Quick test_sql_join;
    Alcotest.test_case "sql join ambiguity" `Quick test_sql_join_ambiguity;
    Alcotest.test_case "sql query snapshot" `Quick test_sql_query_snapshot;
    Alcotest.test_case "sql cascade" `Quick test_sql_cascade;
    Alcotest.test_case "sql cascade reports its own stream" `Quick test_sql_cascade_report;
    Alcotest.test_case "sql drop cascade releases its parent epoch" `Quick
      test_sql_drop_cascade_releases_parent;
    Alcotest.test_case "sql query snapshot cut short" `Quick test_sql_query_snapshot_cut_short;
    Alcotest.test_case "sql index fast path" `Quick test_sql_create_index_and_fast_path;
    Alcotest.test_case "sql show/explain extended" `Quick test_sql_show_explain_extended;
  ]
