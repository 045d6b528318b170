(* MVCC epoch store: never-blocking snapshot reads.

   Three layers under test:

   - Version_store directly, over a toy live table: the inert default
     path, pin-across-commit, mid-commit pins landing on the frozen
     pre-commit image, raw (uncommitted) writes sealed off from frozen
     versions, refcount-gated zombie reclamation, vacuum's byte
     accounting, and a qcheck property over random host schedules that
     also checks the incrementally merged page table against a
     from-scratch build;
   - Snapshot_table / Manager: read transactions pinned across real
     framed-stream refreshes, the iter/fold fast paths, commit-only
     subscriber delivery, and persisted-store adoption (attach_snapshot)
     including the typed Corrupt_snapshot failure;
   - the qcheck property the interface promises: every retained epoch
     reads exactly the image recorded at its commit under random refresh
     methods, fault-induced aborts, prune settings, and grouped scans —
     and no pinned version is ever reclaimed. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module VS = Snapdiff_mvcc.Version_store
module Expr = Snapdiff_expr.Expr
module Link = Snapdiff_net.Link
module Fleet = Snapdiff_fleet.Fleet
module Workload = Snapdiff_workload.Workload
module Rng = Snapdiff_util.Rng
module Gen = QCheck2.Gen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Version_store over a toy live table: a Hashtbl of Addr -> Tuple with
   the live view computed on demand.  Mirrors what Snapshot_table wires
   in, minus the heap/btree machinery. *)

let span = 8

let mk_live tbl =
  {
    VS.live_page =
      (fun pid ->
        let entries =
          Hashtbl.fold
            (fun a v acc -> if a / span = pid then (a, v) :: acc else acc)
            tbl []
        in
        match List.sort (fun (a, _) (b, _) -> compare a b) entries with
        | [] -> None
        | l -> Some (Array.of_list l));
    live_pids =
      (fun () ->
        List.sort_uniq compare
          (Hashtbl.fold (fun a _ acc -> (a / span) :: acc) tbl []));
    live_get = (fun a -> Hashtbl.find_opt tbl a);
    live_count = (fun () -> Hashtbl.length tbl);
  }

let row e i = Tuple.make [ Value.int ((e * 1000) + i) ]

let model tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun a v acc -> (a, v) :: acc) tbl [])

let txn_list txn = List.rev (VS.fold txn ~init:[] ~f:(fun acc a v -> (a, v) :: acc))

(* One deterministic committed epoch: a handful of upserts and deletes
   routed through the host write protocol. *)
let commit_epoch vs tbl e =
  VS.begin_commit vs;
  Fun.protect
    ~finally:(fun () -> VS.end_commit vs ~epoch:e ~snaptime:(10 * e))
    (fun () ->
      for i = 0 to 9 do
        let a = 1 + (((e * 7) + (i * 13)) mod 40) in
        if (e + i) mod 5 = 0 then VS.write vs (`Del a) (fun () -> Hashtbl.remove tbl a)
        else
          let v = row e i in
          VS.write vs (`Put (a, v)) (fun () -> Hashtbl.replace tbl a v)
      done)

let test_vs_inert_default () =
  let tbl = Hashtbl.create 16 in
  let vs = VS.create ~page_span:span ~live:(mk_live tbl) () in
  checkb "inert before any pin" true (not (VS.active vs));
  (match VS.pin vs with
  | None -> Alcotest.fail "head not pinnable"
  | Some txn ->
    checki "pre-first-commit epoch" (-1) (VS.txn_epoch txn);
    VS.release txn;
    VS.release txn (* idempotent *));
  commit_epoch vs tbl 1;
  checkb "still inert after unpinned commit" true (not (VS.active vs));
  checki "no zombies" 0 (VS.zombie_count vs);
  (match VS.versions vs with
  | [ vi ] ->
    checki "head relabeled" 1 vi.VS.vi_epoch;
    checkb "head is live" true (not vi.VS.vi_frozen)
  | l -> Alcotest.failf "retain=1 ring has %d entries" (List.length l));
  match VS.pin vs with
  | None -> Alcotest.fail "head not pinnable"
  | Some txn ->
    checkb "head reads the live image" true (txn_list txn = model tbl);
    VS.release txn

let test_vs_epochs_exact () =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain:3 ~page_span:span ~live:(mk_live tbl) () in
  let models = Hashtbl.create 8 in
  for e = 1 to 6 do
    commit_epoch vs tbl e;
    Hashtbl.replace models e (model tbl)
  done;
  let ring = VS.versions vs in
  checki "ring holds retain epochs" 3 (List.length ring);
  checki "newest first" 6 (List.hd ring).VS.vi_epoch;
  List.iter
    (fun vi ->
      match VS.pin ~epoch:vi.VS.vi_epoch vs with
      | None -> Alcotest.failf "retained epoch %d not pinnable" vi.VS.vi_epoch
      | Some txn ->
        let m = Hashtbl.find models vi.VS.vi_epoch in
        checkb (Printf.sprintf "epoch %d exact" vi.VS.vi_epoch) true (txn_list txn = m);
        checki "count agrees" (List.length m) (VS.count txn);
        List.iter
          (fun (a, v) -> checkb "get agrees" true (VS.get txn a = Some v))
          m;
        checkb "absent addr" true (VS.get txn 999 = None);
        checkb "exists_in_range" (m <> [])
          (VS.exists_in_range txn ~f:(fun _ -> true) ());
        VS.release txn)
    ring;
  checkb "evicted epoch unpinnable" true (VS.pin ~epoch:2 vs = None);
  (* A pin taken mid-commit lands on the frozen pre-commit image and
     keeps reading it while the commit replays and publishes. *)
  let m6 = Hashtbl.find models 6 in
  VS.begin_commit vs;
  let mid = ref None in
  Fun.protect
    ~finally:(fun () -> VS.end_commit vs ~epoch:7 ~snaptime:70)
    (fun () ->
      for i = 0 to 9 do
        let a = 1 + (((7 * 7) + (i * 13)) mod 40) in
        let v = row 7 i in
        VS.write vs (`Put (a, v)) (fun () -> Hashtbl.replace tbl a v);
        if i = 4 then begin
          match VS.pin vs with
          | None -> Alcotest.fail "mid-commit pin refused"
          | Some txn ->
            checki "mid-commit pin is the pre-commit epoch" 6 (VS.txn_epoch txn);
            checkb "mid-commit read is the full pre-commit image" true
              (txn_list txn = m6);
            mid := Some txn
        end
      done);
  (match !mid with
  | None -> Alcotest.fail "no mid-commit pin"
  | Some txn ->
    checkb "pre-commit image survives the publish" true (txn_list txn = m6);
    VS.release txn);
  match VS.pin vs with
  | None -> Alcotest.fail "head gone"
  | Some txn ->
    checkb "post-commit head reads the new image" true (txn_list txn = model tbl);
    VS.release txn

let test_vs_zombie_reclaim () =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain:2 ~page_span:span ~live:(mk_live tbl) () in
  commit_epoch vs tbl 1;
  let m1 = model tbl in
  let txn =
    match VS.pin vs with Some t -> t | None -> Alcotest.fail "pin failed"
  in
  for e = 2 to 4 do
    commit_epoch vs tbl e
  done;
  checkb "epoch 1 evicted from the ring" true
    (not (List.exists (fun vi -> vi.VS.vi_epoch = 1) (VS.versions vs)));
  checki "pinned eviction parks on the zombie list" 1 (VS.zombie_count vs);
  checkb "zombie still reads its exact image" true (txn_list txn = m1);
  checkb "zombie epoch not re-pinnable" true (VS.pin ~epoch:1 vs = None);
  VS.release txn;
  checki "last release reclaims the zombie" 0 (VS.zombie_count vs);
  checkb "released txn is unpinned" true (not (VS.txn_pinned txn));
  checkb "released txn refuses reads" true
    (match VS.count txn with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Raw writes (outside any commit) mutate the live head in place and stay
   visible to head pins — the head IS the live image — while frozen
   versions must stay sealed off. *)
let test_vs_raw_write_isolation () =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain:3 ~page_span:span ~live:(mk_live tbl) () in
  commit_epoch vs tbl 1;
  commit_epoch vs tbl 2;
  let t1 = Option.get (VS.pin ~epoch:1 vs) in
  let t2 = Option.get (VS.pin ~epoch:2 vs) in
  let m1 = txn_list t1 in
  for i = 0 to 19 do
    let a = 1 + ((i * 3) mod 40) in
    if i mod 4 = 0 then VS.write vs (`Del a) (fun () -> Hashtbl.remove tbl a)
    else
      let v = row 99 i in
      VS.write vs (`Put (a, v)) (fun () -> Hashtbl.replace tbl a v)
  done;
  let m_raw = model tbl in
  checkb "frozen epoch 1 unmoved by raw writes" true (txn_list t1 = m1);
  checkb "pinned head follows raw writes (it is the live image)" true
    (txn_list t2 = m_raw);
  VS.release t1;
  (* The next commit freezes the head as-is: the raw writes belong to
     epoch 2's final image, and the pinned-head txn stops moving. *)
  commit_epoch vs tbl 3;
  checkb "head pin sealed at the freeze image" true (txn_list t2 = m_raw);
  VS.release t2;
  (match VS.pin ~epoch:2 vs with
  | None -> Alcotest.fail "epoch 2 fell out of a retain=3 ring"
  | Some t2' ->
    checkb "re-pinned epoch 2 froze the post-raw-write image" true
      (txn_list t2' = m_raw);
    VS.release t2');
  match VS.pin ~epoch:3 vs with
  | None -> Alcotest.fail "epoch 3 not pinned"
  | Some t3 ->
    checkb "epoch 3 is the post-commit image" true (txn_list t3 = model tbl);
    VS.release t3

(* Vacuum's [vac_bytes] is the encoded size of the versions it frees:
   the byte totals of their page tables, read before the vacuum.  A dry
   run reports the same figure and frees nothing. *)
let test_vs_vacuum_bytes () =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain:4 ~page_span:span ~live:(mk_live tbl) () in
  for e = 1 to 6 do
    commit_epoch vs tbl e
  done;
  let table_bytes e =
    let tx = Option.get (VS.pin ~epoch:e vs) in
    let b = List.fold_left (fun acc (_, _, b) -> acc + b) 0 (VS.page_table tx) in
    VS.release tx;
    b
  in
  (* Epochs 3 and 4 fall below the cutoff; 5 and the live head 6 stay. *)
  let freed = table_bytes 3 + table_bytes 4 in
  checkb "the freed versions hold bytes" true (freed > 0);
  let epochs () = List.map (fun vi -> vi.VS.vi_epoch) (VS.versions vs) in
  let ring0 = epochs () in
  let dry = VS.vacuum ~older_than:50 ~dry_run:true vs in
  checki "dry run: two versions would go" 2 dry.VS.vac_reclaimed;
  checki "dry run: vac_bytes = their page tables' bytes" freed dry.VS.vac_bytes;
  checkb "dry run: ring unchanged" true (epochs () = ring0);
  let real = VS.vacuum ~older_than:50 vs in
  checki "vacuum: two versions freed" 2 real.VS.vac_reclaimed;
  checki "vacuum: vac_bytes = their page tables' bytes" freed real.VS.vac_bytes;
  checkb "vacuum: ring keeps epochs 6 and 5" true (epochs () = [ 6; 5 ]);
  checki "vacuum: nothing left to free" 0 (VS.vacuum ~older_than:50 vs).VS.vac_bytes

(* Random host schedules over the toy table: framed commits, raw writes
   between them, [`All] clears, and pins and releases of the head and of
   older epochs — so the store crosses inert <-> active — under retain
   1-4.  Every pinned or retained version must read the model image at
   its freeze (the live image while it is still the head), and its page
   table must equal a from-scratch build of that image, page for page
   and byte total for byte total: for a frozen version this is the
   incrementally merged table the store carries. *)

(* [W_torn]: a host mutation that changes the row and then raises, so
   the post-image it named never landed as named. *)
type wop = W_put of int * int | W_del of int | W_clear | W_torn of int * int

type vop =
  | V_commit of wop list
  | V_raw of wop
  | V_pin_head
  | V_pin_old of int
  | V_release of int

let wop_gen =
  Gen.frequency
    [ (6, Gen.map2 (fun a i -> W_put (a, i)) (Gen.int_range 1 40) (Gen.int_range 0 999));
      (3, Gen.map (fun a -> W_del a) (Gen.int_range 1 40));
      (1, Gen.pure W_clear);
      (1, Gen.map2 (fun a i -> W_torn (a, i)) (Gen.int_range 1 40) (Gen.int_range 0 999)) ]

let vop_gen =
  Gen.frequency
    [ (4, Gen.map (fun ws -> V_commit ws) (Gen.list_size (Gen.int_range 0 12) wop_gen));
      (2, Gen.map (fun w -> V_raw w) wop_gen);
      (1, Gen.pure V_pin_head);
      (1, Gen.map (fun k -> V_pin_old k) Gen.nat);
      (2, Gen.map (fun k -> V_release k) Gen.nat) ]

(* The oracle's own page build: group by pid, rows ascending, bytes summed. *)
let scratch_pages image =
  let by_pid = Hashtbl.create 8 in
  List.iter
    (fun (a, v) ->
      let pid = a / span in
      Hashtbl.replace by_pid pid ((a, v) :: Option.value (Hashtbl.find_opt by_pid pid) ~default:[]))
    image;
  Hashtbl.fold
    (fun pid rows acc ->
      let rows = List.rev rows in
      let bytes = List.fold_left (fun b (_, v) -> b + 8 + Tuple.encoded_size v) 0 rows in
      (pid, Array.of_list rows, bytes) :: acc)
    by_pid []
  |> List.sort compare

let run_vs_schedule (retain, ops) =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain ~page_span:span ~live:(mk_live tbl) () in
  let frozen = Hashtbl.create 16 in
  let head_epoch = ref (-1) and next = ref 1 and held = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> QCheck2.Test.fail_report s) fmt in
  let write e w =
    match w with
    | W_put (a, i) ->
      let v = row e i in
      VS.write vs (`Put (a, v)) (fun () -> Hashtbl.replace tbl a v)
    | W_del a -> VS.write vs (`Del a) (fun () -> Hashtbl.remove tbl a)
    | W_clear -> VS.write vs `All (fun () -> Hashtbl.reset tbl)
    | W_torn (a, i) -> (
      let named = row e i and landed = row e (i + 1) in
      match
        VS.write vs (`Put (a, named)) (fun () ->
            Hashtbl.replace tbl a landed;
            failwith "torn host write")
      with
      | () -> fail "torn write did not raise"
      | exception Failure _ -> ())
  in
  let expected tx =
    let e = VS.txn_epoch tx in
    if e = !head_epoch then model tbl else Hashtbl.find frozen e
  in
  let check what tx =
    let img = expected tx in
    if txn_list tx <> img then fail "%s: epoch %d differs from its image" what (VS.txn_epoch tx);
    if VS.page_table tx <> scratch_pages img then
      fail "%s: epoch %d page table differs from a from-scratch build" what (VS.txn_epoch tx)
  in
  let check_ring () =
    List.iter
      (fun vi ->
        match VS.pin ~epoch:vi.VS.vi_epoch vs with
        | None -> fail "retained epoch %d unpinnable" vi.VS.vi_epoch
        | Some tx ->
          check "ring" tx;
          VS.release tx)
      (VS.versions vs)
  in
  List.iter
    (fun op ->
      (match op with
      | V_commit ws ->
        let e = !next in
        incr next;
        Hashtbl.replace frozen !head_epoch (model tbl);
        VS.begin_commit vs;
        List.iter (write e) ws;
        VS.end_commit vs ~epoch:e ~snaptime:(10 * e);
        head_epoch := e;
        check_ring ()
      | V_raw w -> write 0 w
      | V_pin_head -> held := Option.get (VS.pin vs) :: !held
      | V_pin_old k -> (
        let ring = VS.versions vs in
        let vi = List.nth ring (k mod List.length ring) in
        match VS.pin ~epoch:vi.VS.vi_epoch vs with
        | Some tx -> held := tx :: !held
        | None -> fail "retained epoch %d unpinnable" vi.VS.vi_epoch)
      | V_release k -> (
        match !held with
        | [] -> ()
        | l ->
          let tx = List.nth l (k mod List.length l) in
          VS.release tx;
          held := List.filter (fun t -> t != tx) l));
      List.iter (check "held") !held)
    ops;
  check_ring ();
  List.iter VS.release !held;
  if VS.zombie_count vs <> 0 then fail "zombies survive their last release";
  true

let prop_vs_schedules =
  QCheck2.Test.make ~name:"version store: random schedules, every version exact" ~count:300
    Gen.(pair (int_range 1 4) (list_size (int_range 1 30) vop_gen))
    run_vs_schedule

(* ------------------------------------------------------------------ *)
(* Manager / Snapshot_table integration. *)

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

let setup_mgr ?version_retain ~threshold () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 9 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int threshold)
       ?version_retain ()
      : Manager.refresh_report);
  (m, base)

let test_read_txn_pins_across_refresh () =
  let m, base = setup_mgr ~version_retain:4 ~threshold:12 () in
  let snap = Manager.snapshot_table m "s" in
  let c0 = Snapshot_table.contents snap in
  let rt = Option.get (Manager.read_txn m "s") in
  let e0 = Snapshot_table.txn_epoch rt in
  let t0 = Snapshot_table.txn_snaptime rt in
  ignore (Base_table.insert base (emp "new-lo" 1) : Addr.t);
  ignore (Base_table.insert base (emp "new-hi" 99) : Addr.t);
  (match Base_table.to_user_list base with
  | (addr, _) :: _ -> Base_table.delete base addr
  | [] -> ());
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  let c1 = Snapshot_table.contents snap in
  checkb "the refresh changed the live image" true (c0 <> c1);
  checkb "live image faithful" true (c1 = expected_restricted base 12);
  checkb "pinned txn still reads the pre-refresh image" true
    (Snapshot_table.txn_contents rt = c0);
  checkb "pinned snaptime unmoved" true (Snapshot_table.txn_snaptime rt = t0);
  let rt1 = Option.get (Manager.read_txn m "s") in
  checkb "a fresh txn reads the new image" true (Snapshot_table.txn_contents rt1 = c1);
  checkb "fresh txn is a newer epoch" true (Snapshot_table.txn_epoch rt1 > e0);
  (* Pin the old epoch explicitly while it is still in the ring. *)
  (match Manager.read_txn ~epoch:e0 m "s" with
  | None -> Alcotest.fail "retained epoch refused a pin"
  | Some rt0 ->
    checkb "explicit epoch pin reads the old image" true
      (Snapshot_table.txn_contents rt0 = c0);
    Snapshot_table.release_txn rt0);
  let ring = Manager.snapshot_versions m "s" in
  let e1 = Snapshot_table.txn_epoch rt1 in
  checkb "ring retains both committed epochs" true
    (List.exists (fun vi -> vi.VS.vi_epoch = e0) ring
    && List.exists (fun vi -> vi.VS.vi_epoch = e1) ring);
  let n =
    Manager.with_read_txn m "s" (fun t ->
        Snapshot_table.txn_fold t ~init:0 ~f:(fun acc _ _ -> acc + 1))
  in
  checkb "with_read_txn folds the live count" true (n = Some (List.length c1));
  Snapshot_table.release_txn rt;
  Snapshot_table.release_txn rt1

let test_iter_fold_fast_paths () =
  let m, _base = setup_mgr ~threshold:12 () in
  let snap = Manager.snapshot_table m "s" in
  let c = Snapshot_table.contents snap in
  let via_iter = ref [] in
  Snapshot_table.iter snap (fun a v -> via_iter := (a, v) :: !via_iter);
  checkb "iter = contents" true (List.rev !via_iter = c);
  let via_fold =
    Snapshot_table.fold snap ~init:[] ~f:(fun acc a v -> (a, v) :: acc)
  in
  checkb "fold = contents" true (List.rev via_fold = c);
  checkb "tuples = contents payloads" true
    (Snapshot_table.tuples snap = List.map snd c);
  let rt = Option.get (Snapshot_table.read_txn snap) in
  let via_txn = ref [] in
  Snapshot_table.txn_iter rt (fun a v -> via_txn := (a, v) :: !via_txn);
  checkb "txn_iter = contents" true (List.rev !via_txn = c);
  checki "txn_count" (List.length c) (Snapshot_table.txn_count rt);
  Snapshot_table.release_txn rt

let test_txn_lookup () =
  let m, base = setup_mgr ~version_retain:3 ~threshold:12 () in
  let snap = Manager.snapshot_table m "s" in
  let rt = Option.get (Snapshot_table.read_txn snap) in
  let expect v =
    List.filter_map
      (fun (a, u) -> if salary u = v then Some a else None)
      (Snapshot_table.txn_contents rt)
  in
  checkb "txn_lookup int column" true
    (Snapshot_table.txn_lookup rt ~column:"salary" (Value.int 9) = expect 9);
  checkb "txn_lookup miss" true
    (Snapshot_table.txn_lookup rt ~column:"salary" (Value.int 77) = []);
  checkb "unknown column rejected" true
    (match Snapshot_table.txn_lookup rt ~column:"nope" (Value.int 0) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* The lookup is pinned: mutate + refresh, the answers must not move. *)
  let before = Snapshot_table.txn_lookup rt ~column:"salary" (Value.int 9) in
  ignore (Base_table.insert base (emp "nine" 9) : Addr.t);
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  checkb "pinned lookup unmoved by refresh" true
    (Snapshot_table.txn_lookup rt ~column:"salary" (Value.int 9) = before);
  Snapshot_table.release_txn rt

(* Subscribers hear a framed stream only at its commit marker; an epoch
   that aborts is never delivered at all. *)
let a1 = Addr.make ~page:1 ~slot:0
let a2 = Addr.make ~page:1 ~slot:1

let test_subscribe_commit_only_delivery () =
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  let seen = ref [] in
  Snapshot_table.subscribe snap (fun msg -> seen := msg :: !seen);
  (* Epoch 1 aborts on a sequence gap: nothing may reach the observer. *)
  Snapshot_table.apply_framed snap
    { Refresh_msg.epoch = 1; seq = 0; msg = Refresh_msg.Upsert { addr = a1; values = emp "a" 1 } };
  checki "nothing delivered while staged" 0 (List.length !seen);
  Snapshot_table.apply_framed snap
    { Refresh_msg.epoch = 1; seq = 2; msg = Refresh_msg.Snaptime 10 };
  checki "aborted epoch delivered nothing" 0 (List.length !seen);
  checki "epoch aborted" 1 (Snapshot_table.epochs_aborted snap);
  checki "no contents from the aborted epoch" 0 (Snapshot_table.count snap);
  (* Epoch 2 commits: the full stream arrives, in order, at the marker. *)
  Snapshot_table.apply_framed snap
    { Refresh_msg.epoch = 2; seq = 0; msg = Refresh_msg.Upsert { addr = a1; values = emp "a" 1 } };
  Snapshot_table.apply_framed snap
    { Refresh_msg.epoch = 2; seq = 1; msg = Refresh_msg.Upsert { addr = a2; values = emp "b" 2 } };
  checki "still nothing before the marker" 0 (List.length !seen);
  Snapshot_table.apply_framed snap
    { Refresh_msg.epoch = 2; seq = 2; msg = Refresh_msg.Snaptime 20 };
  checki "committed epoch delivered whole" 3 (List.length !seen);
  checkb "delivered in stream order" true
    (match List.rev !seen with
    | [ Refresh_msg.Upsert { addr = x; _ }; Refresh_msg.Upsert { addr = y; _ };
        Refresh_msg.Snaptime 20 ] -> x = a1 && y = a2
    | _ -> false);
  checki "contents committed" 2 (Snapshot_table.count snap)

(* ------------------------------------------------------------------ *)
(* Persisted-store adoption through the Manager. *)

let with_tmp_file f =
  let path = Filename.temp_file "snapdiff_mvcc" ".db" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_attach_snapshot_resumes () =
  with_tmp_file (fun path ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      for i = 0 to 9 do
        ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
      done;
      ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
      (* Session 1 at the snapshot site: populate a file-backed replica. *)
      let persisted_snaptime =
        let store = Page_store.open_file ~page_size:1024 path in
        let pool = Buffer_pool.create ~frames:8 store in
        let snap = Snapshot_table.on_pool ~name:"s" ~schema:emp_schema pool in
        let msgs = ref [] in
        ignore
          (Differential.refresh ~base ~snaptime:(Snapshot_table.snaptime snap)
             ~restrict:(Annotations.user_pred (fun t -> salary t < 12))
             ~xmit:(fun msg -> msgs := msg :: !msgs)
             ()
            : Differential.report);
        List.iter (Snapshot_table.apply snap) (List.rev !msgs);
        Snapshot_table.flush snap;
        Page_store.close store;
        Snapshot_table.snaptime snap
      in
      (* The base moves on while the site is down. *)
      ignore (Base_table.insert base (emp "late" 3) : Addr.t);
      (match Base_table.to_user_list base with
      | (addr, _) :: _ -> Base_table.delete base addr
      | [] -> ());
      (* Session 2: adopt the persisted replica and refresh differentially. *)
      let m = Manager.create () in
      Manager.register_base m base;
      let store = Page_store.open_file path in
      let pool = Buffer_pool.create ~frames:8 store in
      Manager.attach_snapshot m ~name:"s" ~base:"emp"
        ~restrict:Expr.(col "salary" <. int 12)
        ~method_:Manager.Differential ~snaptime:persisted_snaptime pool;
      checkb "adopted into the catalog" true
        (List.mem "s" (Manager.snapshot_names m));
      let r = Manager.refresh m "s" in
      checkb "resumed differentially" true
        (r.Manager.method_used = Manager.Used_differential);
      let snap = Manager.snapshot_table m "s" in
      checkb "caught up exactly" true
        (Snapshot_table.contents snap = expected_restricted base 12);
      checkb "index rebuilt + valid" true (Snapshot_table.validate snap = Ok ());
      (* The adopted snapshot has a working version ring too. *)
      let rt = Option.get (Manager.read_txn m "s") in
      checki "txn over the adopted store" (Snapshot_table.count snap)
        (Snapshot_table.txn_count rt);
      Snapshot_table.release_txn rt;
      checkb "ideal rejected on attach" true
        (match
           Manager.attach_snapshot m ~name:"s2" ~base:"emp" ~method_:Manager.Ideal pool
         with
        | () -> false
        | exception Manager.Bad_definition _ -> true))

let test_attach_corrupt_snapshot () =
  with_tmp_file (fun path ->
      (* Forge a persisted store whose hidden __baseaddr column holds a
         string: adoption must fail typed and leave the catalog alone. *)
      (let store = Page_store.open_file ~page_size:1024 path in
       let pool = Buffer_pool.create ~frames:8 store in
       let bogus =
         Schema.extend emp_schema
           [ Schema.col ~nullable:false "__baseaddr" Value.Tstring ]
       in
       let heap = Heap.on_pool pool bogus in
       ignore (Heap.insert heap (Tuple.make [ Value.str "x"; Value.int 1; Value.str "junk" ]) : Addr.t);
       Heap.flush heap;
       Page_store.close store);
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let m = Manager.create () in
      Manager.register_base m base;
      let store = Page_store.open_file path in
      let pool = Buffer_pool.create ~frames:8 store in
      checkb "typed corruption failure" true
        (match Manager.attach_snapshot m ~name:"s" ~base:"emp" pool with
        | () -> false
        | exception Snapshot_table.Corrupt_snapshot msg ->
          String.length msg > 0
          && String.sub msg 0 (String.length "snapshot s") = "snapshot s");
      checkb "catalog left unchanged" true (Manager.snapshot_names m = []);
      Page_store.close store)

(* ------------------------------------------------------------------ *)
(* Fleet: reads served at versions pinned before the refresh dispatch. *)

let test_fleet_pinned_reads () =
  let rng = Rng.create 5 in
  let clock = Clock.create () in
  let base = Workload.make_base ~name:"base0" ~clock () in
  Workload.populate base ~rng ~n:200;
  let m = Manager.create () in
  Manager.register_base m base;
  List.iter
    (fun name ->
      ignore
        (Manager.create_snapshot m ~name ~base:"base0"
           ~restrict:(Workload.restrict_fraction 0.5) ~version_retain:2 ()
          : Manager.refresh_report))
    [ "s0"; "s1" ];
  let f = Fleet.create m in
  let dt = 50_000.0 in
  List.iter (fun n -> Fleet.register f ~name:n ~slo_us:dt) [ "s0"; "s1" ];
  checkb "negative read count rejected" true
    (match Fleet.set_pinned_reads f (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Fleet.set_pinned_reads f 5;
  checki "knob readable" 5 (Fleet.pinned_reads f);
  ignore (Workload.mutate_zipf base ~rng ~ops:50 ~theta:0.8 ~mix:Workload.churn : int);
  let r = Fleet.tick f ~now_us:dt in
  checki "both members dispatched" 2 r.Fleet.tr_dispatched;
  checki "five reads per dispatched member" 10 r.Fleet.tr_pinned_reads;
  checki "stats accumulate" 10 (Fleet.stats f).Fleet.st_pinned_reads;
  (* Off by default: a zero knob serves none. *)
  Fleet.set_pinned_reads f 0;
  ignore (Workload.mutate_zipf base ~rng ~ops:50 ~theta:0.8 ~mix:Workload.churn : int);
  let r2 = Fleet.tick f ~now_us:(2.0 *. dt) in
  checki "knob off serves no pinned reads" 0 r2.Fleet.tr_pinned_reads

(* ------------------------------------------------------------------ *)
(* The headline property: every retained epoch of every snapshot reads
   exactly the image recorded at its commit under random refresh methods,
   prune settings, grouped scans, and fault-induced aborts — and a pinned
   version is never reclaimed (its reads stay exact long after eviction).
   Three sibling snapshots share one base, so a round that faults one
   snapshot's link exercises it beside clean siblings in the same group
   refresh. *)

type fop = [ `Ins of int | `Upd of int * int | `Del of int ]

let apply_script base script =
  let n = ref 0 in
  List.iter
    (fun op ->
      incr n;
      let live = Base_table.to_user_list base in
      match op with
      | `Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
      | `Upd (i, s) when live <> [] ->
        let addr = fst (List.nth live (i mod List.length live)) in
        Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
      | `Del i when live <> [] ->
        let addr = fst (List.nth live (i mod List.length live)) in
        Base_table.delete base addr
      | _ -> ())
    script

let script_gen : fop list Gen.t =
  Gen.list_size (Gen.int_range 3 15)
    (Gen.oneof
       [
         Gen.map (fun s -> (`Ins s : fop)) (Gen.int_range 0 19);
         Gen.map2 (fun i s -> (`Upd (i, s) : fop)) (Gen.int_range 0 1000) (Gen.int_range 0 19);
         Gen.map (fun i -> (`Del i : fop)) (Gen.int_range 0 1000);
       ])

let rounds_gen = Gen.list_size (Gen.int_range 2 5) (Gen.pair script_gen (Gen.int_range 0 1000))

let retain_k = 4

let snapshots = [ "s0"; "s1"; "s2" ]

(* At [batch_size = 1] a garbled link can hit any message of a stream; at
   the default, one garbled Batch frame aborts many messages at once. *)
let prop_epochs_exact ~batch_size name =
  QCheck2.Test.make ~name ~count:30
    Gen.(triple rounds_gen (int_range 1 20) bool)
    (fun (rounds, threshold, prune) ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let m = Manager.create ~batch_size () in
      Manager.register_base m base;
      for i = 0 to 9 do
        ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
      done;
      List.iter
        (fun name ->
          ignore
            (Manager.create_snapshot m ~name ~base:"emp"
               ~restrict:Expr.(col "salary" <. int threshold)
               ~prune ~version_retain:retain_k ()
              : Manager.refresh_report))
        snapshots;
      (* models.(name) : epoch -> expected contents at that commit *)
      let models = Hashtbl.create 16 in
      let record_latest () =
        let expect = expected_restricted base threshold in
        List.iter
          (fun name ->
            match Manager.snapshot_versions m name with
            | vi :: _ -> Hashtbl.replace models (name, vi.VS.vi_epoch) expect
            | [] -> ())
          snapshots
      in
      record_latest ();
      let pinned = ref [] in
      let ok = ref true in
      let fail fmt = Printf.ksprintf (fun s -> ok := false; QCheck2.Test.fail_report s) fmt in
      List.iter
        (fun (script, knob) ->
          apply_script base script;
          let meth =
            match knob mod 3 with
            | 0 -> Manager.Auto
            | 1 -> Manager.Full
            | _ -> Manager.Differential
          in
          List.iter (fun name -> Manager.set_method m name meth) snapshots;
          (* Sometimes garble one snapshot's link so its stream aborts and
             retries while frozen versions are live. *)
          let faulted =
            if knob mod 4 = 0 then begin
              let name = List.nth snapshots (knob mod 3) in
              let link = Manager.snapshot_link m name in
              Link.inject_faults link ~corrupt_prob:0.3 ~seed:knob ();
              Some link
            end
            else None
          in
          let results = Manager.refresh_all m in
          Option.iter Link.clear_faults faulted;
          (* Anyone whose retry budget ran out converges on a clean retry
             (the base has not moved since). *)
          List.iter
            (fun (name, r) ->
              match r with
              | Ok _ -> ()
              | Error _ -> ignore (Manager.refresh m name : Manager.refresh_report))
            results;
          record_latest ();
          (* Sometimes pin the freshly committed version and hold it for
             the rest of the run. *)
          if knob mod 5 < 2 then begin
            let name = List.nth snapshots (knob mod 3) in
            match Manager.read_txn m name with
            | Some rt ->
              pinned := (name, rt, expected_restricted base threshold) :: !pinned
            | None -> fail "latest version of %s refused a pin" name
          end;
          (* Every retained epoch of every snapshot must read exactly the
             image recorded at its commit. *)
          List.iter
            (fun name ->
              List.iter
                (fun vi ->
                  match Hashtbl.find_opt models (name, vi.VS.vi_epoch) with
                  | None -> () (* aborted-then-retried epoch numbers skip *)
                  | Some expect -> (
                    match Manager.read_txn ~epoch:vi.VS.vi_epoch m name with
                    | None -> fail "retained epoch %d of %s unpinnable" vi.VS.vi_epoch name
                    | Some rt ->
                      if Snapshot_table.txn_contents rt <> expect then
                        fail "%s epoch %d diverged from its commit image" name
                          vi.VS.vi_epoch;
                      Snapshot_table.release_txn rt))
                (Manager.snapshot_versions m name))
            snapshots)
        rounds;
      (* Reclaim safety: every long-held pin still reads its exact commit
         image, however far the ring has moved past it. *)
      List.iter
        (fun (name, rt, expect) ->
          if not (Snapshot_table.txn_pinned rt) then
            fail "held pin on %s was released under us" name;
          if Snapshot_table.txn_contents rt <> expect then
            fail "held pin on %s no longer reads its commit image" name;
          Snapshot_table.release_txn rt)
        !pinned;
      !ok)

let suite =
  [
    Alcotest.test_case "version store: inert default path" `Quick test_vs_inert_default;
    Alcotest.test_case "version store: naive epochs exact" `Quick test_vs_epochs_exact;
    Alcotest.test_case "version store: naive zombie reclaim" `Quick test_vs_zombie_reclaim;
    Alcotest.test_case "version store: raw writes isolated (naive)" `Quick
      test_vs_raw_write_isolation;
    Alcotest.test_case "version store: vacuum bytes = freed page tables" `Quick
      test_vs_vacuum_bytes;
    QCheck_alcotest.to_alcotest prop_vs_schedules;
    Alcotest.test_case "read txn pins across refresh (naive)" `Quick
      test_read_txn_pins_across_refresh;
    Alcotest.test_case "iter/fold fast paths match contents" `Quick
      test_iter_fold_fast_paths;
    Alcotest.test_case "txn_lookup at the pinned version" `Quick test_txn_lookup;
    Alcotest.test_case "subscribers hear framed streams only at commit" `Quick
      test_subscribe_commit_only_delivery;
    Alcotest.test_case "attach_snapshot adopts and resumes differentially" `Quick
      test_attach_snapshot_resumes;
    Alcotest.test_case "attach_snapshot surfaces Corrupt_snapshot typed" `Quick
      test_attach_corrupt_snapshot;
    Alcotest.test_case "fleet serves reads at pinned pre-refresh versions" `Quick
      test_fleet_pinned_reads;
    QCheck_alcotest.to_alcotest
      (prop_epochs_exact ~batch_size:1 "each retained epoch = its recorded image");
    QCheck_alcotest.to_alcotest
      (prop_epochs_exact ~batch_size:Manager.default_batch_size
         "batched: each retained epoch = its recorded image");
  ]
