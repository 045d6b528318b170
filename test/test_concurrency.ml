(* Chunked concurrent refresh: the whole-scan table lock dissolved into a
   table intention lock plus lock-coupled page-chunk locks, with a final
   short table-S catch-up replaying the WAL tail written while the scan
   ran.  These tests drive updaters at the chunk boundaries (the protocol's
   interleave points) and check that

   - updaters are never blocked on pages the cursor has released, and a
     monolithic refresh grants none until it returns,
   - the committed snapshot equals the base restriction/projection as of
     the commit Snaptime, whatever interleaved,
   - a WAL truncated past the scan's catch-up LSN escalates the refresh to
     a monolithic full refresh instead of committing a hole,
   - a quiescent chunked stream is byte-identical to the monolithic one,
   - a failed attempt aborts (never commits) its lock transaction. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Expr = Snapdiff_expr.Expr
module Link = Snapdiff_net.Link
module Wal = Snapdiff_wal.Wal
module Metrics = Snapdiff_obs.Metrics
module Gen = QCheck2.Gen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

let expected_restricted base threshold =
  List.filter_map
    (fun (addr, u) -> if salary u < threshold then Some (addr, u) else None)
    (Base_table.to_user_list base)

let faithful m name base threshold =
  let snap = Manager.snapshot_table m name in
  Snapshot_table.contents snap = expected_restricted base threshold
  && Snapshot_table.validate snap = Ok ()

(* A small page size so a few dozen entries span many pages, giving the
   chunk walk several boundaries to interleave at. *)
let setup ?(mode = Base_table.Deferred) ?(prune = true) ?(chunk_entries = 4)
    ?(threshold = 10) ?(n = 40) () =
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base =
    Base_table.create ~mode ~page_size:256 ~wal ~name:"emp" ~clock emp_schema
  in
  let m = Manager.create ~chunk_entries () in
  Manager.register_base m base;
  for i = 0 to n - 1 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int threshold)
       ~method_:Manager.Differential ~prune ()
      : Manager.refresh_report);
  (m, base, wal)

(* An updater transaction following the locking convention — table IX,
   page IX on the touched page, entry X — against the manager's own lock
   table.  Returns false (skipping the operation) if a lock is currently
   held by the scan, so callers can assert where blocking may and may not
   happen. *)
let locked_update m base ~addr tuple =
  let txn = Txn.begin_txn (Manager.txn_manager m) in
  let granted res mode =
    match Txn.try_lock txn res mode with `Granted -> true | _ -> false
  in
  let ok =
    granted (Base_table.lock_resource base) Lock.IX
    && granted (Base_table.page_lock_resource base (Addr.page addr)) Lock.IX
    && granted (Lock.Entry (Base_table.name base, addr)) Lock.X
  in
  if ok then Base_table.update base addr tuple;
  ignore ((if ok then Txn.commit txn else Txn.abort txn) : int list);
  ok

let locked_delete m base ~addr =
  let txn = Txn.begin_txn (Manager.txn_manager m) in
  let granted res mode =
    match Txn.try_lock txn res mode with `Granted -> true | _ -> false
  in
  let ok =
    granted (Base_table.lock_resource base) Lock.IX
    && granted (Base_table.page_lock_resource base (Addr.page addr)) Lock.IX
    && granted (Lock.Entry (Base_table.name base, addr)) Lock.X
  in
  if ok then Base_table.delete base addr;
  ignore ((if ok then Txn.commit txn else Txn.abort txn) : int list);
  ok

let locked_insert m base tuple =
  let txn = Txn.begin_txn (Manager.txn_manager m) in
  let ok =
    match Txn.try_lock txn (Base_table.lock_resource base) Lock.IX with
    | `Granted -> true
    | _ -> false
  in
  if ok then ignore (Base_table.insert base tuple : Addr.t);
  ignore ((if ok then Txn.commit txn else Txn.abort txn) : int list);
  ok

(* ------------------------------------------------------------------ *)
(* Updaters interleave at chunk boundaries and the catch-up phase folds
   their changes into the committed image.  At every boundary an updater
   is tried on one live row of every page: it is granted there unless the
   cursor holds the page, and a page held at one boundary is released by
   the next.  A monolithic refresh of the same base grants no updater
   until it returns. *)

(* The first live row of each page, in page order. *)
let row_per_page base =
  List.fold_left
    (fun acc (addr, _) ->
      match acc with
      | (p, _) :: _ when p = Addr.page addr -> acc
      | _ -> (Addr.page addr, addr) :: acc)
    [] (Base_table.to_user_list base)
  |> List.rev

let run_interleaved_refresh ~mode () =
  let threshold = 10 in
  let m, base, _wal = setup ~mode ~chunk_entries:4 ~threshold () in
  let lm = Txn.lock_table (Manager.txn_manager m) in
  let hook_calls = ref 0 in
  let granted = ref 0 in
  let refused = ref [] in  (* pages the previous boundary found held *)
  let regranted = ref 0 in
  Manager.set_chunk_hook m
    (Some
       (fun () ->
         incr hook_calls;
         (* The scan's table intention lock spans every interleave point:
            holders is non-empty and in an intention mode, never S/X. *)
         (match Lock.holders lm (Base_table.lock_resource base) with
         | [] -> Alcotest.fail "scan dropped its table lock at a chunk boundary"
         | holders ->
           List.iter
             (fun (_, held) ->
               checkb "table lock is intention mode" true
                 (held = Lock.IS || held = Lock.IX))
             holders);
         let was_refused = !refused in
         refused := [];
         List.iter
           (fun (p, addr) ->
             let ok = locked_update m base ~addr (emp "upd" (!hook_calls + threshold)) in
             let held = Lock.holders lm (Base_table.page_lock_resource base p) <> [] in
             if held then begin
               checkb "updater on a page the cursor holds is refused" false ok;
               if List.mem p was_refused then
                 Alcotest.failf "page %d still held at the next boundary" p;
               refused := p :: !refused
             end
             else begin
               checkb "updater on a released page granted at the boundary" true ok;
               incr granted;
               if List.mem p was_refused then incr regranted
             end)
           (row_per_page base);
         if !hook_calls <= 3 then
           checkb "insert not blocked" true (locked_insert m base (emp "new" !hook_calls))));
  let r = Manager.refresh m "s" in
  Manager.set_chunk_hook m None;
  checkb "scan ran in several chunks" true (r.Manager.chunks > 1);
  checkb "updaters were granted at the boundaries" true (!granted > 0);
  checkb "a refused updater was granted at the next boundary" true (!regranted > 0);
  checkb "the last boundary holds no page" true (!refused = []);
  checkb "catch-up replayed the interleaved changes" true
    (r.Manager.catchup_records > 0);
  checkb "committed image = restriction at commit" true (faithful m "s" base threshold);
  checki "lock table drained" 0 (Lock.lock_count lm);
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  checkb "and after one quiescent refresh" true (faithful m "s" base threshold);
  (* The same base refreshed monolithically: the snapshot's link hears
     each frame inside the refresh, and an updater tried there is
     refused. *)
  let mono, mbase, _wal = setup ~mode ~chunk_entries:max_int ~threshold () in
  List.iter
    (fun (p, addr) -> Base_table.update mbase addr (emp "pre" (p mod threshold)))
    (row_per_page mbase);
  let tries = ref 0 and mono_granted = ref 0 in
  Snapdiff_net.Link.attach (Manager.snapshot_link mono "s") (fun frame len ->
      List.iter
        (fun (_, addr) ->
          incr tries;
          if locked_update mono mbase ~addr (emp "mid" threshold) then incr mono_granted)
        (row_per_page mbase);
      Snapshot_table.apply_bytes (Manager.snapshot_table mono "s") frame len);
  let rm = Manager.refresh mono "s" in
  checki "monolithic refresh ran in one chunk" 0 rm.Manager.chunks;
  checkb "updaters were tried inside the monolithic refresh" true (!tries > 0);
  checki "the monolithic refresh granted none" 0 !mono_granted;
  (match row_per_page mbase with
  | (_, addr) :: _ ->
    checkb "granted once it returns" true (locked_update mono mbase ~addr (emp "post" 1))
  | [] -> Alcotest.fail "empty base");
  r

let test_chunked_deferred_interleaves () =
  let r = run_interleaved_refresh ~mode:Base_table.Deferred () in
  checkb "differential method" true (r.Manager.method_used = Manager.Used_differential)

let test_chunked_eager_interleaves () =
  ignore (run_interleaved_refresh ~mode:Base_table.Eager () : Manager.refresh_report)

(* While a chunk is being scanned its pages are locked: an updater aimed
   at the page under the cursor is the one thing that must still block
   (shown via try_lock refusal inside the hook, where the coupled next
   chunk is held). *)
let test_cursor_pages_stay_locked () =
  let m, base, _wal = setup ~mode:Base_table.Eager ~chunk_entries:4 () in
  let saw_held_page = ref false in
  Manager.set_chunk_hook m
    (Some
       (fun () ->
         (* Find any page lock still granted to the scan: those are the
            coupled next chunk's; an IX probe on one must refuse. *)
         let lm = Txn.lock_table (Manager.txn_manager m) in
         let pages = Base_table.data_pages base in
         let held =
           List.filter
             (fun p -> Lock.holders lm (Base_table.page_lock_resource base p) <> [])
             (List.init pages (fun i -> i + 1))
         in
         match held with
         | [] -> ()  (* final boundary: everything released *)
         | p :: _ ->
           saw_held_page := true;
           let txn = Txn.begin_txn (Manager.txn_manager m) in
           (match Txn.try_lock txn (Base_table.page_lock_resource base p) Lock.IX with
           | `Granted -> Alcotest.fail "page under the cursor must refuse IX"
           | `Would_block _ | `Deadlock -> ());
           ignore (Txn.abort txn : int list)));
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  Manager.set_chunk_hook m None;
  checkb "observed a coupled chunk still locked" true !saw_held_page

(* ------------------------------------------------------------------ *)
(* A truncation of the whole log mid-scan stops at the scan's hold on its
   catch-up start: the catch-up still finds its tail, and the chunked
   attempt commits without escalating. *)

let test_scan_hold_stops_truncation () =
  let m, base, wal = setup ~chunk_entries:4 () in
  let lsn0 = Wal.end_lsn wal in
  let gated = ref None in
  Manager.set_chunk_hook m
    (Some
       (fun () ->
         if !gated = None then begin
           ignore (Base_table.insert base (emp "mid" 5) : Addr.t);
           gated := Some (Wal.truncate_before wal (Wal.end_lsn wal))
         end));
  let r = Manager.refresh m "s" in
  Manager.set_chunk_hook m None;
  Alcotest.(check (option (list (pair string int)))) "the truncation stopped at the scan's hold"
    (Some [ ("scan:emp", lsn0) ]) !gated;
  checki "the log keeps the catch-up tail" lsn0 (Wal.oldest_retained wal);
  checkb "not escalated" false r.Manager.escalated;
  checki "committed on the first attempt" 1 r.Manager.attempts;
  checkb "chunked" true (r.Manager.chunks > 0);
  checkb "catch-up replayed the tail" true (r.Manager.catchup_records > 0);
  checkb "converged" true (faithful m "s" base 10)

(* ------------------------------------------------------------------ *)
(* Satellite regression: an attempt that dies inside the refresh's lock
   transaction must abort it, not commit it.  (The old with_table_lock
   committed on the exception path.) *)

let test_failed_attempt_aborts_lock_txn () =
  let m, _base, _wal = setup ~chunk_entries:max_int () in
  Manager.set_retry_policy m
    {
      Manager.default_retry_policy with
      max_attempts = 2;
      escalate_after = 0;
      backoff_us = 1.0;
      max_backoff_us = 1.0;
      jitter = 0.0;
    };
  let link = Manager.snapshot_link m "s" in
  (* Every data send fails: both attempts die mid-stream, inside the lock
     transaction. *)
  Link.inject_faults link ~partitions:[ (1, 1_000_000) ] ~seed:1 ();
  let commits0 = Metrics.counter_value Metrics.global "txn.commits" in
  let aborts0 = Metrics.counter_value Metrics.global "txn.aborts" in
  (match Manager.refresh m "s" with
  | (_ : Manager.refresh_report) -> Alcotest.fail "refresh must fail"
  | exception Manager.Refresh_failed { attempts; _ } -> checki "attempts" 2 attempts);
  Link.clear_faults link;
  checki "failed attempts committed nothing" 0
    (Metrics.counter_value Metrics.global "txn.commits" - commits0);
  checki "each failed attempt aborted its txn" 2
    (Metrics.counter_value Metrics.global "txn.aborts" - aborts0)

(* ------------------------------------------------------------------ *)
(* Byte identity: with no concurrent updates the chunked stream is the
   monolithic stream, frame for frame — and chunk_entries = max_int is
   literally the monolithic path. *)

let capture_refresh ~chunk_entries =
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base =
    Base_table.create ~mode:Base_table.Deferred ~page_size:256 ~wal ~name:"emp" ~clock
      emp_schema
  in
  let m = Manager.create ~chunk_entries () in
  Manager.register_base m base;
  for i = 0 to 39 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 10)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  (* Mutations before the refresh; the refresh itself runs quiescent. *)
  let live () = Base_table.to_user_list base in
  Base_table.update base (fst (List.nth (live ()) 3)) (emp "u3" 4);
  Base_table.update base (fst (List.nth (live ()) 17)) (emp "u17" 15);
  Base_table.delete base (fst (List.nth (live ()) 8));
  ignore (Base_table.insert base (emp "n1" 2) : Addr.t);
  ignore (Base_table.insert base (emp "n2" 13) : Addr.t);
  let link = Manager.snapshot_link m "s" in
  let table = Manager.snapshot_table m "s" in
  let buf = Buffer.create 1024 in
  Link.attach link (fun b len ->
      Buffer.add_subbytes buf b 0 len;
      Snapshot_table.apply_bytes table b len);
  let r = Manager.refresh m "s" in
  (Buffer.contents buf, r)

let test_quiescent_chunked_stream_byte_identical () =
  let mono, rm = capture_refresh ~chunk_entries:max_int in
  let chunked, rc = capture_refresh ~chunk_entries:4 in
  let off, ro = capture_refresh ~chunk_entries:max_int in
  checki "chunk_entries=max_int is the monolithic path" 0 rm.Manager.chunks;
  checkb "small chunks took the chunked path" true (rc.Manager.chunks > 1);
  checki "quiescent catch-up is empty" 0 rc.Manager.catchup_records;
  checkb "monolithic runs are reproducible" true (String.equal mono off);
  checki "reproducible report chunks" 0 ro.Manager.chunks;
  checkb "chunked stream byte-identical to monolithic" true (String.equal mono chunked)

(* ------------------------------------------------------------------ *)
(* Property: whatever mode, pruning, chunk size, group size, and whatever
   the updaters do at the interleave points, every committed snapshot
   equals its base restriction at the commit Snaptime. *)

type yop = [ `Ins of int | `Upd of int * int | `Del of int ]

let yop_gen : yop Gen.t =
  Gen.oneof
    [
      Gen.map (fun s -> (`Ins s : yop)) (Gen.int_range 0 19);
      Gen.map2 (fun i s -> (`Upd (i, s) : yop)) (Gen.int_range 0 1000) (Gen.int_range 0 19);
      Gen.map (fun i -> (`Del i : yop)) (Gen.int_range 0 1000);
    ]

let apply_yop m base (op : yop) =
  let live = Base_table.to_user_list base in
  match op with
  | `Ins s -> ignore (locked_insert m base (emp "y" s) : bool)
  | `Upd (i, s) when live <> [] ->
    let addr = fst (List.nth live (i mod List.length live)) in
    ignore (locked_update m base ~addr (emp "yu" s) : bool)
  | `Del i when live <> [] ->
    let addr = fst (List.nth live (i mod List.length live)) in
    ignore (locked_delete m base ~addr : bool)
  | _ -> ()

let print_yops batches =
  String.concat " | "
    (List.map
       (fun ops ->
         String.concat ";"
           (List.map
              (function
                | `Ins s -> Printf.sprintf "ins%d" s
                | `Upd (i, s) -> Printf.sprintf "upd%d,%d" i s
                | `Del i -> Printf.sprintf "del%d" i)
              ops))
       batches)

let prop_chunked_refresh_faithful =
  QCheck2.Test.make
    ~name:"chunked refresh commits the restriction at commit time" ~count:40
    ~print:(fun ((deferred, prune, grouped), (chunk, threshold, batches)) ->
      Printf.sprintf "deferred=%b prune=%b grouped=%b chunk=%d threshold=%d [%s]"
        deferred prune grouped chunk threshold (print_yops batches))
    (Gen.pair
       (Gen.triple Gen.bool Gen.bool Gen.bool)
       (Gen.triple (Gen.int_range 1 30) (Gen.int_range 1 20)
          (Gen.list_size (Gen.int_range 0 10)
             (Gen.list_size (Gen.int_range 0 3) yop_gen))))
    (fun ((deferred, prune, grouped), (chunk, threshold, batches)) ->
      let mode = if deferred then Base_table.Deferred else Base_table.Eager in
      let m, base, _wal = setup ~mode ~prune ~chunk_entries:chunk ~threshold () in
      let threshold2 = 21 - threshold in
      if grouped then
        ignore
          (Manager.create_snapshot m ~name:"s2" ~base:"emp"
             ~restrict:Expr.(col "salary" <. int threshold2)
             ~method_:Manager.Differential ~prune ()
            : Manager.refresh_report);
      let remaining = ref batches in
      Manager.set_chunk_hook m
        (Some
           (fun () ->
             match !remaining with
             | [] -> ()
             | ops :: rest ->
               remaining := rest;
               List.iter (apply_yop m base) ops));
      let results = Manager.refresh_all m in
      Manager.set_chunk_hook m None;
      List.for_all (fun (_, r) -> match r with Ok _ -> true | Error _ -> false) results
      && faithful m "s" base threshold
      && (not grouped || faithful m "s2" base threshold2)
      && Lock.lock_count (Txn.lock_table (Manager.txn_manager m)) = 0)

(* Property: the same, over many refreshes.  A row inserted behind the
   cursor reaches the snapshot through the catch-up overlay; unless the
   refresh also puts it in the PrevAddr chain, deleting it before the next
   differential refresh leaves no anomaly and the row stays in the
   snapshot.  And a row the scan shipped ahead of the cursor, then deleted
   behind it, nets out to nothing in the log, yet the snapshot holds it.
   Each round routes every snapshot Full or Differential and refreshes
   them solo or through [refresh_all] while updaters run at the chunk
   boundaries; then, with no updater running, it deletes some of the rows
   the updaters inserted and refreshes every snapshot differentially.  A
   solo refresh's updaters may change rows after a sibling committed, so
   only that last, quiescent refresh is checked against the base. *)
type chunk_round = {
  cr_methods : Manager.method_spec list;  (* one per snapshot *)
  cr_all : bool;
  cr_batches : yop list list;  (* one batch per chunk boundary *)
  cr_drop : int list;  (* victims among the rows updaters inserted, newest first *)
}

let chunk_round_gen nsnaps =
  Gen.map4
    (fun cr_methods cr_all cr_batches cr_drop -> { cr_methods; cr_all; cr_batches; cr_drop })
    (Gen.list_repeat nsnaps (Gen.oneofl [ Manager.Full; Manager.Differential ]))
    Gen.bool
    (Gen.list_size (Gen.int_range 0 8)
       (Gen.list_size (Gen.int_range 0 2)
          (Gen.frequency [ (3, Gen.map (fun s -> (`Ins s : yop)) (Gen.int_range 0 19)); (2, yop_gen) ])))
    (Gen.list_size (Gen.int_range 0 3) (Gen.int_range 0 3))

let print_chunk_rounds rounds =
  String.concat " / "
    (List.map
       (fun r ->
         Printf.sprintf "%s%s {%s} drop[%s]"
           (String.concat ","
              (List.map (function Manager.Full -> "F" | _ -> "D") r.cr_methods))
           (if r.cr_all then " all" else "")
           (print_yops r.cr_batches)
           (String.concat "," (List.map string_of_int r.cr_drop)))
       rounds)

let prop_chunked_rounds_keep_deletes =
  QCheck2.Test.make ~name:"chunked refreshes over rounds miss no delete" ~count:100
    ~print:(fun ((deferred, nsnaps, chunk), (threshold, rounds)) ->
      Printf.sprintf "deferred=%b nsnaps=%d chunk=%d threshold=%d %s" deferred nsnaps chunk
        threshold (print_chunk_rounds rounds))
    Gen.(
      triple bool (int_range 1 2) (int_range 2 8) >>= fun (deferred, nsnaps, chunk) ->
      pair
        (pure (deferred, nsnaps, chunk))
        (pair (int_range 1 20) (list_repeat 10 (chunk_round_gen nsnaps))))
    (fun ((deferred, nsnaps, chunk), (threshold, rounds)) ->
      let mode = if deferred then Base_table.Deferred else Base_table.Eager in
      let m, base, _wal = setup ~mode ~chunk_entries:chunk ~threshold ~n:30 () in
      let snaps = List.init nsnaps (fun i -> if i = 0 then ("s", threshold) else ("s2", 21 - threshold)) in
      let names = List.map fst snaps in
      if nsnaps = 2 then
        ignore
          (Manager.create_snapshot m ~name:"s2" ~base:"emp"
             ~restrict:Expr.(col "salary" <. int (21 - threshold))
             ~method_:Manager.Differential ()
            : Manager.refresh_report);
      let inserted = ref [] in  (* newest first *)
      let remaining = ref [] in
      Manager.set_chunk_hook m
        (Some
           (fun () ->
             match !remaining with
             | [] -> ()
             | ops :: rest ->
               remaining := rest;
               List.iter
                 (function
                   | `Ins s ->
                     let txn = Txn.begin_txn (Manager.txn_manager m) in
                     (match Txn.try_lock txn (Base_table.lock_resource base) Lock.IX with
                     | `Granted -> inserted := Base_table.insert base (emp "y" s) :: !inserted
                     | _ -> ());
                     ignore (Txn.commit txn : int list)
                   | op -> apply_yop m base op)
                 ops));
      let refresh round all =
        if all then
          List.iter
            (fun (name, res) ->
              match res with
              | Ok (_ : Manager.refresh_report) -> ()
              | Error e ->
                QCheck2.Test.fail_reportf "round %d: %s: %s" round name (Printexc.to_string e))
            (Manager.refresh_all m)
        else List.iter (fun name -> ignore (Manager.refresh m name : Manager.refresh_report)) names
      in
      List.iteri
        (fun round r ->
          List.iter2 (Manager.set_method m) names r.cr_methods;
          remaining := r.cr_batches;
          refresh round r.cr_all;
          remaining := [];
          inserted := List.filter (fun a -> Base_table.get base a <> None) !inserted;
          List.iter
            (fun i ->
              match List.nth_opt !inserted i with
              | Some addr when Base_table.get base addr <> None -> Base_table.delete base addr
              | _ -> ())
            r.cr_drop;
          List.iter (fun name -> Manager.set_method m name Manager.Differential) names;
          refresh round r.cr_all;
          List.iter
            (fun (name, th) ->
              if not (faithful m name base th) then
                QCheck2.Test.fail_reportf "round %d: %s differs from its base restriction" round
                  name)
            snaps;
          if Lock.lock_count (Txn.lock_table (Manager.txn_manager m)) <> 0 then
            QCheck2.Test.fail_reportf "round %d: lock table not drained" round)
        rounds;
      Manager.set_chunk_hook m None;
      true)

let suite =
  [
    Alcotest.test_case "chunked deferred: updaters interleave" `Quick
      test_chunked_deferred_interleaves;
    Alcotest.test_case "chunked eager: updaters interleave" `Quick
      test_chunked_eager_interleaves;
    Alcotest.test_case "cursor pages stay locked" `Quick test_cursor_pages_stay_locked;
    Alcotest.test_case "a scan's hold stops a truncation" `Quick
      test_scan_hold_stops_truncation;
    Alcotest.test_case "failed attempt aborts its lock txn" `Quick
      test_failed_attempt_aborts_lock_txn;
    Alcotest.test_case "quiescent chunked stream byte-identical" `Quick
      test_quiescent_chunked_stream_byte_identical;
    QCheck_alcotest.to_alcotest prop_chunked_refresh_faithful;
    QCheck_alcotest.to_alcotest prop_chunked_rounds_keep_deletes;
  ]
