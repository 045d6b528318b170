(* Tests for the stepwise algorithm variants: the simple dense algorithm
   (Figures 1-2 golden test) and the empty-regions variant. *)

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
(* Dense: basics *)

let test_dense_basics () =
  let clock = Clock.create () in
  let d = Dense.create ~capacity:5 ~schema:emp_schema ~clock () in
  checki "capacity" 5 (Dense.capacity d);
  Dense.set d ~addr:2 (emp "a" 1);
  Alcotest.check (Alcotest.option tuple) "get" (Some (emp "a" 1)) (Dense.get d ~addr:2);
  checkb "others empty" true (Dense.get d ~addr:1 = None);
  Dense.remove d ~addr:2;
  checkb "removed" true (Dense.get d ~addr:2 = None);
  Alcotest.check_raises "address 0" (Invalid_argument "Dense: address out of space") (fun () ->
      Dense.set d ~addr:0 (emp "x" 1));
  Alcotest.check_raises "address 6" (Invalid_argument "Dense: address out of space") (fun () ->
      ignore (Dense.get d ~addr:6))

(* The paper's Figure 1 / Figure 2 example, verbatim (timestamps are the
   paper's clock readings as integers: 3:00 -> 300 etc.). *)
let figure_1_table () =
  let clock = Clock.create () in
  let d = Dense.create ~capacity:7 ~schema:emp_schema ~clock () in
  let set_at ts addr t =
    Clock.advance_to clock (ts - 1);
    Dense.set d ~addr t
  in
  let remove_at ts addr =
    Clock.advance_to clock (ts - 1);
    Dense.remove d ~addr
  in
  (* History consistent with the figure's final timestamps. *)
  set_at 100 7 (emp "Bob" 7);
  set_at 150 4 (emp "Jack" 6);
  set_at 200 6 (emp "Paul" 8);
  set_at 230 5 (emp "Mohan" 9);
  set_at 300 1 (emp "Bruce" 15);
  set_at 310 3 (emp "Hamid" 9);
  (* --- SnapTime 330: snapshot of Salary < 10 taken here --- *)
  set_at 345 2 (emp "Laura" 6);
  set_at 350 3 (emp "Hamid" 15);  (* "Hamid has had a raise" *)
  remove_at 400 4;
  remove_at 410 7;
  (d, clock)

let test_dense_figure1_messages () =
  let d, _ = figure_1_table () in
  let msgs = ref [] in
  let report =
    Dense.refresh d ~snaptime:330 ~restrict:sal_lt10 ~project:Fun.id ~xmit:(fun m ->
        msgs := m :: !msgs)
  in
  (* Figure 1's refresh messages: (2, ok, Laura, 6), (3, empty),
     (4, empty), (7, empty). *)
  Alcotest.check (Alcotest.list msg) "figure 1 messages"
    [
      Refresh_msg.Upsert { addr = 2; row = Row.of_tuple (emp "Laura" 6) };
      Refresh_msg.Remove { addr = 3 };
      Refresh_msg.Remove { addr = 4 };
      Refresh_msg.Remove { addr = 7 };
      Refresh_msg.Snaptime report.Dense.new_snaptime;
    ]
    (List.rev !msgs);
  checki "four data messages" 4 report.Dense.data_messages;
  checki "whole space scanned" 7 report.Dense.elements_scanned

let test_dense_figure2_snapshot_states () =
  let d, _ = figure_1_table () in
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  (* Figure 2 "before": as of SnapTime 330. *)
  List.iter
    (fun (addr, t) -> Snapshot_table.apply snap (Refresh_msg.Upsert { addr; row = Row.of_tuple t }))
    [ (3, emp "Hamid" 9); (4, emp "Jack" 6); (5, emp "Mohan" 9); (6, emp "Paul" 8);
      (7, emp "Bob" 7) ];
  Snapshot_table.apply snap (Refresh_msg.Snaptime 330);
  let msgs = ref [] in
  ignore
    (Dense.refresh d ~snaptime:330 ~restrict:sal_lt10 ~project:Fun.id ~xmit:(fun m ->
         msgs := m :: !msgs)
      : Dense.report);
  List.iter (Snapshot_table.apply snap) (List.rev !msgs);
  (* Figure 2 "after": 2 Laura 6, 5 Mohan 9, 6 Paul 8. *)
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int tuple))
    "figure 2 after"
    [ (2, emp "Laura" 6); (5, emp "Mohan" 9); (6, emp "Paul" 8) ]
    (Snapshot_table.contents snap)

let test_dense_refresh_advances_snaptime () =
  let d, _ = figure_1_table () in
  let sink = ref [] in
  let r1 =
    Dense.refresh d ~snaptime:330 ~restrict:sal_lt10 ~project:Fun.id ~xmit:(fun m ->
        sink := m :: !sink)
  in
  (* Refreshing again from the new snaptime sends nothing. *)
  let count = ref 0 in
  let r2 =
    Dense.refresh d ~snaptime:r1.Dense.new_snaptime ~restrict:sal_lt10 ~project:Fun.id
      ~xmit:(fun m -> if Refresh_msg.is_data m then incr count)
  in
  checki "quiescent dense refresh sends nothing" 0 !count;
  checkb "snaptime advances" true (r2.Dense.new_snaptime > r1.Dense.new_snaptime)

(* ------------------------------------------------------------------ *)
(* Regions: maintenance *)

let test_regions_initial_state () =
  let clock = Clock.create () in
  let r = Regions.create ~capacity:10 ~schema:emp_schema ~clock () in
  Alcotest.(check (list (triple int int int))) "one region"
    [ (1, 10, Clock.never) ]
    (Regions.regions r);
  checkb "tiles" true (Regions.validate r = Ok ())

let test_regions_insert_splits () =
  let clock = Clock.create () in
  let r = Regions.create ~capacity:10 ~schema:emp_schema ~clock () in
  Regions.insert_at r ~addr:5 (emp "mid" 1);
  Alcotest.(check (list (triple int int int))) "split keeps old ts"
    [ (1, 4, Clock.never); (6, 10, Clock.never) ]
    (Regions.regions r);
  (* Insert at a region edge leaves a single remnant. *)
  Regions.insert_at r ~addr:1 (emp "lo" 1);
  Regions.insert_at r ~addr:10 (emp "hi" 1);
  Alcotest.(check (list (triple int int int))) "edges"
    [ (2, 4, Clock.never); (6, 9, Clock.never) ]
    (Regions.regions r);
  checkb "tiles" true (Regions.validate r = Ok ());
  Alcotest.check_raises "occupied" (Invalid_argument "Regions.insert_at: address occupied")
    (fun () -> Regions.insert_at r ~addr:5 (emp "again" 1))

let test_regions_delete_coalesces () =
  let clock = Clock.create () in
  let r = Regions.create ~capacity:5 ~schema:emp_schema ~clock () in
  List.iter (fun a -> Regions.insert_at r ~addr:a (emp (string_of_int a) a)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list (triple int int int))) "full" [] (Regions.regions r);
  Regions.delete r ~addr:2;
  Regions.delete r ~addr:4;
  checki "two singleton regions" 2 (List.length (Regions.regions r));
  (* Deleting 3 merges [2,2], [3,3], [4,4] into [2,4] with a fresh stamp. *)
  let before = Clock.now clock in
  Regions.delete r ~addr:3;
  (match Regions.regions r with
  | [ (2, 4, ts) ] -> checkb "stamped now" true (ts > before)
  | other -> Alcotest.failf "unexpected regions (%d)" (List.length other));
  checkb "tiles" true (Regions.validate r = Ok ())

let test_regions_insert_lowest () =
  let clock = Clock.create () in
  let r = Regions.create ~capacity:4 ~schema:emp_schema ~clock () in
  checki "first" 1 (Regions.insert r (emp "a" 1));
  checki "second" 2 (Regions.insert r (emp "b" 2));
  Regions.delete r ~addr:1;
  checki "reuses lowest" 1 (Regions.insert r (emp "c" 3));
  checki "then next" 3 (Regions.insert r (emp "d" 4));
  checki "then next" 4 (Regions.insert r (emp "e" 5));
  Alcotest.check_raises "full" (Failure "Regions.insert: address space full") (fun () ->
      ignore (Regions.insert r (emp "f" 6)))

let test_regions_update () =
  let clock = Clock.create () in
  let r = Regions.create ~capacity:3 ~schema:emp_schema ~clock () in
  let a = Regions.insert r (emp "x" 1) in
  Regions.update r ~addr:a (emp "x" 2);
  Alcotest.check (Alcotest.option tuple) "updated" (Some (emp "x" 2)) (Regions.get r ~addr:a);
  Alcotest.check_raises "missing" Not_found (fun () -> Regions.update r ~addr:3 (emp "y" 1))

(* The Figure 1 story through the regions algorithm: the two empty
   regions and the unqualified updated entry combine. *)
let figure_1_regions () =
  let clock = Clock.create () in
  let r = Regions.create ~capacity:7 ~schema:emp_schema ~clock () in
  let at ts f =
    Clock.advance_to clock (ts - 1);
    f ()
  in
  at 100 (fun () -> Regions.insert_at r ~addr:7 (emp "Bob" 7));
  at 150 (fun () -> Regions.insert_at r ~addr:4 (emp "Jack" 6));
  at 200 (fun () -> Regions.insert_at r ~addr:6 (emp "Paul" 8));
  at 230 (fun () -> Regions.insert_at r ~addr:5 (emp "Mohan" 9));
  at 300 (fun () -> Regions.insert_at r ~addr:1 (emp "Bruce" 15));
  at 310 (fun () -> Regions.insert_at r ~addr:3 (emp "Hamid" 9));
  at 320 (fun () -> Regions.insert_at r ~addr:2 (emp "Stub" 20));
  (* Snapshot at 330.  Then the changes: *)
  at 345 (fun () -> Regions.update r ~addr:2 (emp "Laura" 6));
  at 350 (fun () -> Regions.update r ~addr:3 (emp "Hamid" 15));
  at 400 (fun () -> Regions.delete r ~addr:4);
  at 410 (fun () -> Regions.delete r ~addr:7);
  (r, clock)

let test_regions_refresh_combines () =
  let r, _ = figure_1_regions () in
  let msgs = ref [] in
  let report =
    Regions.refresh r ~snaptime:330 ~restrict:sal_lt10 ~project:Fun.id ~xmit:(fun m ->
        msgs := m :: !msgs)
  in
  (* Hamid (addr 3, now unqualified, changed) combines with the empty
     region [4,4] into one deletion region [3,4]; Bob's deletion is the
     region [7,7].  Laura (addr 2) is upserted. *)
  Alcotest.check (Alcotest.list msg) "combined messages"
    [
      Refresh_msg.Upsert { addr = 2; row = Row.of_tuple (emp "Laura" 6) };
      Refresh_msg.Region { lo = 3; hi = 4 };
      Refresh_msg.Region { lo = 7; hi = 7 };
      Refresh_msg.Snaptime report.Regions.new_snaptime;
    ]
    (List.rev !msgs);
  checki "three data messages (vs dense's four)" 3 report.Regions.data_messages

let test_regions_refresh_faithful () =
  let r, _ = figure_1_regions () in
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  List.iter
    (fun (addr, t) -> Snapshot_table.apply snap (Refresh_msg.Upsert { addr; row = Row.of_tuple t }))
    [ (3, emp "Hamid" 9); (4, emp "Jack" 6); (5, emp "Mohan" 9); (6, emp "Paul" 8);
      (7, emp "Bob" 7) ];
  let msgs = ref [] in
  ignore
    (Regions.refresh r ~snaptime:330 ~restrict:sal_lt10 ~project:Fun.id ~xmit:(fun m ->
         msgs := m :: !msgs)
      : Regions.report);
  List.iter (Snapshot_table.apply snap) (List.rev !msgs);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int tuple))
    "snapshot tracks restricted base"
    [ (2, emp "Laura" 6); (5, emp "Mohan" 9); (6, emp "Paul" 8) ]
    (Snapshot_table.contents snap)

let test_regions_unchanged_region_not_sent () =
  let clock = Clock.create () in
  let r = Regions.create ~capacity:10 ~schema:emp_schema ~clock () in
  let a = Regions.insert r (emp "only" 1) in
  ignore a;
  let snaptime = Clock.now clock in
  let count = ref 0 in
  ignore
    (Regions.refresh r ~snaptime ~restrict:sal_lt10 ~project:Fun.id ~xmit:(fun m ->
         if Refresh_msg.is_data m then incr count)
      : Regions.report);
  checki "quiescent: nothing (no unconditional tail!)" 0 !count

let suite =
  [
    Alcotest.test_case "dense basics" `Quick test_dense_basics;
    Alcotest.test_case "dense Figure 1 messages" `Quick test_dense_figure1_messages;
    Alcotest.test_case "dense Figure 2 snapshot" `Quick test_dense_figure2_snapshot_states;
    Alcotest.test_case "dense snaptime advances" `Quick test_dense_refresh_advances_snaptime;
    Alcotest.test_case "regions initial" `Quick test_regions_initial_state;
    Alcotest.test_case "regions insert splits" `Quick test_regions_insert_splits;
    Alcotest.test_case "regions delete coalesces" `Quick test_regions_delete_coalesces;
    Alcotest.test_case "regions insert lowest" `Quick test_regions_insert_lowest;
    Alcotest.test_case "regions update" `Quick test_regions_update;
    Alcotest.test_case "regions refresh combines" `Quick test_regions_refresh_combines;
    Alcotest.test_case "regions refresh faithful" `Quick test_regions_refresh_faithful;
    Alcotest.test_case "regions quiescent" `Quick test_regions_unchanged_region_not_sent;
  ]
