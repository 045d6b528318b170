(* Concurrency around refresh: "in order to have a transaction consistent
   view of the base table during the fix up process, we must obtain a
   table level lock on the base table".

   Three interleaved sessions share one lock manager:
     - payday    : a writer transaction (IX on the table) giving raises
     - hiring    : another writer, inserting new employees
     - refresher : takes the table-level X lock, runs the combined
                   fix-up + differential refresh, ships the messages

   The scheduler interleaves them step by step; the trace shows the
   refresher waiting for the in-flight writers and then seeing all of
   their work at once — a transaction-consistent snapshot.

   Run with: dune exec examples/concurrent_refresh.exe *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

let () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let staff =
    List.map
      (fun (n, s) -> (n, Base_table.insert base (emp n s)))
      [ ("Bruce", 15); ("Hamid", 9); ("Jack", 6); ("Mohan", 9); ("Paul", 8) ]
  in
  ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
  let snap = Snapshot_table.create ~name:"lowpay" ~schema:emp_schema () in
  let restrict t = salary t < 10 in
  (* Initial population. *)
  List.iter
    (fun (addr, u) ->
      if restrict u then Snapshot_table.apply snap
        (Refresh_msg.Upsert { addr; row = Row.of_tuple u }))
    (Base_table.to_user_list base);
  Snapshot_table.apply snap (Refresh_msg.Snaptime (Clock.now clock));
  Printf.printf "before: snapshot has %d rows (snaptime %d)\n\n" (Snapshot_table.count snap)
    (Snapshot_table.snaptime snap);

  let mgr = Txn.create_manager () in
  let sched = Scheduler.create mgr in
  let table = Base_table.lock_resource base in
  let addr_of n = List.assoc n staff in

  let _payday =
    Scheduler.spawn sched ~name:"payday"
      [
        Scheduler.Lock (table, Lock.IX);
        Scheduler.Lock (Lock.Entry ("emp", addr_of "Hamid"), Lock.X);
        Scheduler.Work ("raise Hamid", fun () -> Base_table.update base (addr_of "Hamid") (emp "Hamid" 15));
        Scheduler.Lock (Lock.Entry ("emp", addr_of "Jack"), Lock.X);
        Scheduler.Work ("raise Jack", fun () -> Base_table.update base (addr_of "Jack") (emp "Jack" 7));
        Scheduler.Commit;
      ]
  in
  let _hiring =
    Scheduler.spawn sched ~name:"hiring"
      [
        Scheduler.Lock (table, Lock.IX);
        Scheduler.Work ("hire Laura", fun () -> ignore (Base_table.insert base (emp "Laura" 6) : Addr.t));
        Scheduler.Work ("fire Paul", fun () -> Base_table.delete base (addr_of "Paul"));
        Scheduler.Commit;
      ]
  in
  let msgs_sent = ref 0 in
  let _refresher =
    Scheduler.spawn sched ~name:"refresher"
      [
        Scheduler.Lock (table, Lock.X);
        Scheduler.Work
          ( "combined fixup+refresh",
            fun () ->
              let msgs = ref [] in
              ignore
                (Differential.refresh ~base ~snaptime:(Snapshot_table.snaptime snap) ~restrict:(Annotations.user_pred restrict)
                   ~xmit:(fun m -> msgs := m :: !msgs)
                   ()
                  : Differential.report);
              List.iter
                (fun m ->
                  if Refresh_msg.is_data m then incr msgs_sent;
                  Snapshot_table.apply snap m)
                (List.rev !msgs) );
        Scheduler.Commit;
      ]
  in
  Scheduler.run sched;

  print_endline "scheduler trace:";
  List.iter (fun e -> Printf.printf "  %s\n" e) (Scheduler.trace sched);
  Printf.printf
    "\nafter: %d data messages shipped; snapshot has %d rows (snaptime %d):\n" !msgs_sent
    (Snapshot_table.count snap) (Snapshot_table.snaptime snap);
  List.iter
    (fun (addr, t) -> Printf.printf "  %-6s %s\n" (Addr.to_string addr) (Tuple.to_string t))
    (Snapshot_table.contents snap);
  print_endline
    "\n(the refresher's X lock waited for both writers; it then saw their\n\
     complete, committed work - never a half-applied transaction)"
