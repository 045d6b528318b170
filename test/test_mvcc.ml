(* MVCC epoch store: never-blocking snapshot reads.

   Three layers under test:

   - Version_store directly: a one-version ring relabelled per commit,
     pin-across-commit, mid-commit pins landing on the sealed pre-commit
     image, raw (uncommitted) writes reaching neither frozen versions nor
     pins of the head, refcount-gated zombie reclamation, and vacuum's
     byte accounting;
   - Snapshot_table / Manager: read transactions pinned across real
     framed-stream refreshes, the iter/fold fast paths, a vacuum inside
     an open epoch, and persisted-store adoption (attach_snapshot)
     including the typed Corrupt_snapshot failures;
   - the qcheck properties: every retained epoch reads exactly the image
     recorded at its commit under random refresh methods, fault-induced
     aborts, prune settings, and grouped scans — and no pinned version is
     ever reclaimed; and random receiver schedules over one snapshot
     table, checked against a model of Figure 4, whose pinned page tables
     must equal a from-scratch build. *)

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
(* Version_store directly: the writer's edits go to the store, and a
   Hashtbl beside it models the open root. *)

let span = 8

let row e i = Tuple.make [ Value.int ((e * 1000) + i) ]

let model tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun a v acc -> (a, v) :: acc) tbl [])

(* The store holds rows as bytes; the model holds the tuples they encode. *)
let image_list img =
  List.rev (VS.fold img ~init:[] ~f:(fun acc a r -> (a, Row.to_tuple r) :: acc))

let txn_list txn = image_list (VS.txn_image txn)

let put vs tbl a v =
  ignore (VS.put vs a (Row.of_tuple v) : Row.t option);
  Hashtbl.replace tbl a v

let del vs tbl a =
  ignore (VS.delete vs a : Row.t option);
  Hashtbl.remove tbl a

(* One deterministic committed epoch: a handful of upserts and deletes. *)
let commit_epoch vs tbl e =
  VS.begin_commit vs;
  for i = 0 to 9 do
    let a = 1 + (((e * 7) + (i * 13)) mod 40) in
    if (e + i) mod 5 = 0 then del vs tbl a else put vs tbl a (row e i)
  done;
  VS.end_commit vs ~epoch:e ~snaptime:(10 * e)

let test_vs_inert_default () =
  let tbl = Hashtbl.create 16 in
  let vs = VS.create ~page_span:span () in
  (match VS.pin vs with
  | None -> Alcotest.fail "head not pinnable"
  | Some txn ->
    checki "pre-first-commit epoch" (-1) (VS.txn_epoch txn);
    VS.release txn;
    VS.release txn (* idempotent *));
  commit_epoch vs tbl 1;
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
  let vs = VS.create ~retain:3 ~page_span:span () in
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
        let img = VS.txn_image txn in
        checkb (Printf.sprintf "epoch %d exact" vi.VS.vi_epoch) true (txn_list txn = m);
        checki "count agrees" (List.length m) (VS.count img);
        List.iter
          (fun (a, v) -> checkb "get agrees" true (Option.map Row.to_tuple (VS.find img a) = Some v))
          m;
        checkb "absent addr" true (VS.find img 999 = None);
        VS.release txn)
    ring;
  checkb "evicted epoch unpinnable" true (VS.pin ~epoch:2 vs = None);
  (* A pin taken mid-commit lands on the sealed pre-commit image and
     keeps reading it while the commit replays and publishes. *)
  let m6 = Hashtbl.find models 6 in
  VS.begin_commit vs;
  let mid = ref None in
  for i = 0 to 9 do
    let a = 1 + (((7 * 7) + (i * 13)) mod 40) in
    put vs tbl a (row 7 i);
    if i = 4 then begin
      match VS.pin vs with
      | None -> Alcotest.fail "mid-commit pin refused"
      | Some txn ->
        checki "mid-commit pin is the pre-commit epoch" 6 (VS.txn_epoch txn);
        checkb "mid-commit read is the full pre-commit image" true (txn_list txn = m6);
        mid := Some txn
    end
  done;
  VS.end_commit vs ~epoch:7 ~snaptime:70;
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
  let vs = VS.create ~retain:2 ~page_span:span () in
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
    (match VS.count (VS.txn_image txn) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Raw writes (outside any commit) edit the open root.  Frozen versions
   and pins of the head alike keep the image of their pin time; the next
   commit seals the raw writes into the head epoch's final image. *)
let test_vs_raw_write_isolation () =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain:3 ~page_span:span () in
  commit_epoch vs tbl 1;
  commit_epoch vs tbl 2;
  let t1 = Option.get (VS.pin ~epoch:1 vs) in
  let t2 = Option.get (VS.pin ~epoch:2 vs) in
  let m1 = txn_list t1 and m2 = txn_list t2 in
  for i = 0 to 19 do
    let a = 1 + ((i * 3) mod 40) in
    if i mod 4 = 0 then del vs tbl a else put vs tbl a (row 99 i)
  done;
  let m_raw = model tbl in
  checkb "frozen epoch 1 unmoved by raw writes" true (txn_list t1 = m1);
  checkb "pinned head keeps its pin-time image" true (txn_list t2 = m2);
  VS.release t1;
  commit_epoch vs tbl 3;
  checkb "head pin still reads its pin-time image" true (txn_list t2 = m2);
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

(* An aborted commit drops the replay's edits — those made in place on
   pages the commit created as well as copies of published pages — and
   publishes nothing; a pin of the head taken mid-commit is unaffected,
   and the next commit starts from the restored root. *)
let test_vs_abort_commit () =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain:2 ~page_span:span () in
  commit_epoch vs tbl 1;
  let m1 = model tbl and ring1 = List.map (fun vi -> vi.VS.vi_epoch) (VS.versions vs) in
  VS.begin_commit vs;
  for i = 0 to 19 do
    let a = 1 + ((i * 5) mod 60) in
    if i mod 3 = 0 then ignore (VS.delete vs a : Row.t option)
    else ignore (VS.put vs a (Row.of_tuple (row 98 i)) : Row.t option)
  done;
  let mid = Option.get (VS.pin vs) in
  ignore (VS.put vs 7 (Row.of_tuple (row 98 99)) : Row.t option);
  VS.abort_commit vs;
  let head = image_list (VS.head vs) in
  checkb "open root is epoch 1's image" true (head = m1);
  checkb "mid-commit pin reads the pre-commit image" true (txn_list mid = m1);
  VS.release mid;
  checkb "nothing published" true (List.map (fun vi -> vi.VS.vi_epoch) (VS.versions vs) = ring1);
  checkb "layout valid" true (VS.validate vs = Ok ());
  commit_epoch vs tbl 2;
  let t2 = Option.get (VS.pin ~epoch:2 vs) in
  checkb "the next commit lands on the restored root" true (txn_list t2 = model tbl);
  VS.release t2

(* Vacuum's [vac_bytes] is the encoded size of the versions it frees:
   the byte totals of their page tables, read before the vacuum.  A dry
   run reports the same figure and frees nothing. *)
let test_vs_vacuum_bytes () =
  let tbl = Hashtbl.create 64 in
  let vs = VS.create ~retain:4 ~page_span:span () in
  for e = 1 to 6 do
    commit_epoch vs tbl e
  done;
  let table_bytes e =
    let tx = Option.get (VS.pin ~epoch:e vs) in
    let b =
      List.fold_left (fun acc (_, _, b) -> acc + b) 0 (VS.page_table (VS.txn_image tx))
    in
    VS.release tx;
    b
  in
  (* Epochs 3 and 4 fall below the cutoff; 5 and the head 6 stay. *)
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

let a1 = Addr.make ~page:1 ~slot:0
let a2 = Addr.make ~page:1 ~slot:1

(* A vacuum between two frames of an open epoch reclaims old versions and
   never touches the head, which is then the pre-commit image; the epoch
   then commits onto a correct ring. *)
let test_vacuum_mid_epoch () =
  let snap = Snapshot_table.create ~version_retain:3 ~name:"s" ~schema:emp_schema () in
  let frame epoch seq msg = Test_properties.deliver snap (Refresh_msg.encode_framed ~epoch ~seq [ msg ]) in
  let epochs () = List.map (fun vi -> vi.VS.vi_epoch) (Snapshot_table.versions snap) in
  for e = 1 to 3 do
    frame e 0 (Refresh_msg.Upsert { addr = a1; row = Row.of_tuple (emp "a" e) });
    frame e 1 (Refresh_msg.Snaptime (10 * e))
  done;
  frame 4 0 (Refresh_msg.Upsert { addr = a2; row = Row.of_tuple (emp "b" 4) });
  let st = Snapshot_table.vacuum ~older_than:30 snap in
  checki "epochs 1 and 2 reclaimed" 2 st.VS.vac_reclaimed;
  Alcotest.(check (list int)) "the head survives" [ 3 ] (epochs ());
  checkb "reads still see epoch 3" true (Snapshot_table.contents snap = [ (a1, emp "a" 3) ]);
  frame 4 1 (Refresh_msg.Snaptime 40);
  checki "epoch 4 committed" 4 (Snapshot_table.last_committed_epoch snap);
  Alcotest.(check (list int)) "the ring" [ 4; 3 ] (epochs ());
  let at e =
    let rt = Snapshot_table.read_txn_exn ~epoch:e snap in
    Fun.protect ~finally:(fun () -> Snapshot_table.release_txn rt) (fun () ->
        Snapshot_table.txn_contents rt)
  in
  checkb "epoch 3 reads its image" true (at 3 = [ (a1, emp "a" 3) ]);
  checkb "epoch 4 reads its image" true (at 4 = [ (a1, emp "a" 3); (a2, emp "b" 4) ]);
  checkb "valid" true (Snapshot_table.validate snap = Ok ())

(* ------------------------------------------------------------------ *)
(* Reader domains against a committing writer.  Every round retags every
   row, so each committed epoch holds one tag, and a pinned scan that sees
   two is a torn read.  Two reader domains pin the head, then the oldest
   retained epoch, and scan each, for as long as the writer runs.  A hook
   on the snapshot's link stops the writer halfway through each epoch,
   with half the rows retagged in the open root, until every reader has
   finished a pair of scans it pinned after the stop: reads overlap an
   open epoch every round, whatever the scheduling, also on one CPU. *)

let tag_schema =
  Schema.make
    [ Schema.col ~nullable:false "id" Value.Tint; Schema.col ~nullable:false "tag" Value.Tint ]

let test_reader_domains_never_tear () =
  let n = 2_000 and rounds = 4 and n_readers = 2 in
  let base = Base_table.create ~name:"mv" ~clock:(Clock.create ()) tag_schema in
  let addrs =
    Array.init n (fun i -> Base_table.insert base (Tuple.make [ Value.int i; Value.int 0 ]))
  in
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"mv" ~method_:Manager.Differential
       ~version_retain:4 ()
      : Manager.refresh_report);
  let snap = Manager.snapshot_table m "s" in
  let one_tag tuples =
    match tuples with
    | [] -> true
    | t :: rest -> List.for_all (fun u -> Tuple.get u 1 = Tuple.get t 1) rest
  in
  let stop = Atomic.make false in
  let stops_posted = Atomic.make 0 in
  (* Per reader: the value of [stops_posted] when its last finished pair
     of scans began. *)
  let served = Array.init n_readers (fun _ -> Atomic.make 0) in
  let reader i () =
    let reads = ref 0 and torn = ref 0 in
    let scan = function
      | None -> ()  (* the oldest epoch left the ring between list and pin *)
      | Some rt ->
        let tuples =
          Fun.protect
            ~finally:(fun () -> Snapshot_table.release_txn rt)
            (fun () -> Snapshot_table.txn_fold rt ~init:[] ~f:(fun acc _ v -> v :: acc))
        in
        incr reads;
        if not (one_tag tuples) then incr torn
    in
    Fun.protect
      ~finally:(fun () -> Atomic.set served.(i) max_int)
      (fun () ->
        while not (Atomic.get stop) do
          let seen = Atomic.get stops_posted in
          scan (Snapshot_table.read_txn snap);
          scan
            (match List.rev (Snapshot_table.versions snap) with
            | vi :: _ -> Snapshot_table.read_txn ~epoch:vi.VS.vi_epoch snap
            | [] -> None);
          Atomic.set served.(i) seen
        done);
    (!reads, !torn)
  in
  (* Each round's epoch is [n / 64] batch frames and its Snaptime: the
     stop comes before its middle frame applies. *)
  let heard = ref 0 and stops = ref 0 in
  Snapdiff_net.Link.attach (Manager.snapshot_link m "s") (fun frame len ->
      (match Refresh_msg.decode_framed (Bytes.sub frame 0 len) with
      | _, [ Refresh_msg.Snaptime _ ] -> heard := 0
      | _ ->
        incr heard;
        if !heard = n / Refresh_msg.default_batch_size / 2 then begin
          checkb "the stop falls inside an open epoch" true
            (Snapshot_table.open_epoch snap <> None);
          let k = 1 + Atomic.fetch_and_add stops_posted 1 in
          while Array.exists (fun s -> Atomic.get s < k) served do
            Domain.cpu_relax ()
          done;
          incr stops
        end);
      Snapshot_table.apply_bytes snap frame len);
  let readers = Array.init n_readers (fun i -> Domain.spawn (reader i)) in
  Fun.protect
    ~finally:(fun () -> Atomic.set stop true)
    (fun () ->
      for r = 1 to rounds do
        Array.iteri
          (fun i a -> Base_table.update base a (Tuple.make [ Value.int i; Value.int r ]))
          addrs;
        ignore (Manager.refresh m "s" : Manager.refresh_report)
      done);
  let results = Array.map Domain.join readers in
  checki "no torn read" 0 (Array.fold_left (fun acc (_, t) -> acc + t) 0 results);
  checkb "the readers read" true (Array.for_all (fun (r, _) -> r > 0) results);
  checki "every epoch stopped for the readers" rounds !stops;
  checkb "the head holds the last round's tag" true
    (List.for_all (fun t -> Tuple.get t 1 = Value.int rounds) (Snapshot_table.tuples snap));
  List.iter
    (fun vi ->
      let rt = Snapshot_table.read_txn_exn ~epoch:vi.VS.vi_epoch snap in
      checkb "each retained epoch holds one tag" true
        (one_tag (List.map snd (Snapshot_table.txn_contents rt)));
      Snapshot_table.release_txn rt)
    (Snapshot_table.versions snap)

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

let test_attach_duplicate_baseaddr () =
  with_tmp_file (fun path ->
      (* Forge a persisted store with two records at BaseAddr 7: adoption
         must fail typed, naming the address, and leave the catalog alone. *)
      (let store = Page_store.open_file ~page_size:1024 path in
       let pool = Buffer_pool.create ~frames:8 store in
       let stored =
         Schema.extend emp_schema [ Schema.col ~nullable:false "__baseaddr" Value.Tint ]
       in
       let heap = Heap.on_pool pool stored in
       List.iter
         (fun (n, s) ->
           ignore (Heap.insert heap (Tuple.make [ Value.str n; Value.int s; Value.int 7 ]) : Addr.t))
         [ ("a", 1); ("b", 2) ];
       Heap.flush heap;
       Page_store.close store);
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let m = Manager.create () in
      Manager.register_base m base;
      let store = Page_store.open_file path in
      let pool = Buffer_pool.create ~frames:8 store in
      let has msg needle =
        let n = String.length needle and l = String.length msg in
        let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
        go 0
      in
      checkb "duplicate BaseAddr rejected, typed" true
        (match Manager.attach_snapshot m ~name:"s" ~base:"emp" pool with
        | () -> false
        | exception Snapshot_table.Corrupt_snapshot msg -> has msg "duplicate __baseaddr 7");
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
   the default, one garbled frame aborts many messages at once. *)
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

(* ------------------------------------------------------------------ *)
(* Receiver schedules over a real Snapshot_table on a small pool: framed
   commits (clean, with a dropped frame, with a garbled frame), raw
   applies of every message kind, pins and releases of the head and of
   older epochs, vacuum, create_index mid-run, and flush followed by
   re-adoption of the persisted store with [on_pool] — under retain 1-4.
   The oracle: the head equals an assoc-map model of Figure 4; every held
   pin reads its pin-time image until released, and its page table
   equals a from-scratch build of that image; every retained epoch reads
   the image it held when the next commit started (the head reads the
   model); [lookup] on every indexed column equals a filtered scan;
   [validate] is [Ok]. *)

module IntMap = Test_properties.IntMap

let rx_span = 200
let rx_addr = Gen.int_range 0 (rx_span - 1)
let rx_row_gen = Gen.map (fun v -> emp (Printf.sprintf "r%d" v) v) (Gen.int_range 0 9)

let rx_data_gen =
  Gen.(
    frequency
      [ (3, map3 (fun addr back values -> Refresh_msg.Entry { addr; prev_qual = addr - 1 - back;
          row = Row.of_tuple values })
              rx_addr (int_range (-2) 30) rx_row_gen);
        (1, map2 (fun lo len -> Refresh_msg.Region { lo; hi = lo + len }) rx_addr (int_range (-1) 30));
        (1, map (fun last_qual -> Refresh_msg.Tail { last_qual }) rx_addr);
        (3, map2 (fun addr values -> Refresh_msg.Upsert { addr;
            row = Row.of_tuple values }) rx_addr rx_row_gen);
        (2, map (fun addr -> Refresh_msg.Remove { addr }) rx_addr) ])

(* One raw message, or a run of 1-4 data messages applied back to back. *)
let rx_raw_gen =
  Gen.(
    frequency
      [ (8, map (fun m -> [ m ]) rx_data_gen);
        (1, pure [ Refresh_msg.Clear ]);
        (1, map (fun ts -> [ Refresh_msg.Snaptime ts ]) (int_range 1 1000));
        (1, pure [ Refresh_msg.Register { restrict = "true"; projection = [ "name" ] } ]);
        (1, map (fun snaptime -> [ Refresh_msg.Request { snaptime } ]) nat);
        (2, list_size (int_range 1 4) rx_data_gen) ])

(* A differential-shaped stream: an optional Clear, Entry/Region steps in
   address order, an optional Tail, then catch-up Upsert/Remove. *)
let rx_stream_gen =
  let open Gen in
  let* clear = map (fun i -> i = 0) (int_range 0 9) in
  let* addrs = map (List.sort_uniq compare) (list_size (int_range 0 25) rx_addr) in
  let* picks = list_repeat (List.length addrs) (triple (int_range 0 9) nat rx_row_gen) in
  let* tail = opt (int_range 0 10) in
  let* catchup =
    list_size (int_range 0 5)
      (oneof
         [ map2 (fun addr values -> Refresh_msg.Upsert { addr;
             row = Row.of_tuple values }) rx_addr rx_row_gen;
           map (fun addr -> Refresh_msg.Remove { addr }) rx_addr ])
  in
  let prev = ref (-1) in
  let ordered =
    List.map2
      (fun addr (kind, r, values) ->
        let from = !prev in
        prev := addr;
        let within = r mod (addr - from) in
        if kind < 7 then Refresh_msg.Entry { addr; prev_qual = from + within;
            row = Row.of_tuple values }
        else Refresh_msg.Region { lo = from + 1 + within; hi = addr })
      addrs picks
  in
  let tail = Option.map (fun d -> Refresh_msg.Tail { last_qual = !prev + d }) tail in
  return ((if clear then [ Refresh_msg.Clear ] else []) @ ordered @ Option.to_list tail @ catchup)

type rx_fault = Rx_clean | Rx_drop of int | Rx_garble of int * int * int  (* frame, byte, mask *)

type rx_op =
  | Rx_commit of Refresh_msg.t list * int * rx_fault  (* stream, frame batch size, fault *)
  | Rx_raw of Refresh_msg.t list
  | Rx_pin_head
  | Rx_pin_old of int
  | Rx_release of int
  | Rx_vacuum of int option * bool  (* cutoff epoch, dry run *)
  | Rx_index of string
  | Rx_readopt

let rx_op_gen =
  Gen.(
    frequency
      [ (5, map3 (fun s k f -> Rx_commit (s, k, f)) rx_stream_gen (int_range 1 8)
              (frequency
                 [ (3, pure Rx_clean);
                   (1, map (fun i -> Rx_drop i) nat);
                   (1, map3 (fun i b x -> Rx_garble (i, b, x)) nat nat (int_range 1 255)) ]));
        (3, map (fun m -> Rx_raw m) rx_raw_gen);
        (1, pure Rx_pin_head);
        (1, map (fun k -> Rx_pin_old k) nat);
        (2, map (fun k -> Rx_release k) nat);
        (1, map2 (fun c d -> Rx_vacuum (c, d)) (opt (int_range 0 30)) bool);
        (1, map (fun c -> Rx_index c) (oneofl [ "name"; "salary" ]));
        (1, pure Rx_readopt) ])

let print_rx_op = function
  | Rx_commit (s, k, f) ->
    Printf.sprintf "commit k=%d %s [%s]" k
      (match f with
      | Rx_clean -> "clean"
      | Rx_drop i -> Printf.sprintf "drop %d" i
      | Rx_garble (i, b, x) -> Printf.sprintf "garble %d:%d^%d" i b x)
      (String.concat "; " (List.map (Format.asprintf "%a" Refresh_msg.pp) s))
  | Rx_raw ms -> String.concat "; " (List.map (Format.asprintf "raw %a" Refresh_msg.pp) ms)
  | Rx_pin_head -> "pin head"
  | Rx_pin_old k -> Printf.sprintf "pin old %d" k
  | Rx_release k -> Printf.sprintf "release %d" k
  | Rx_vacuum (c, d) ->
    Printf.sprintf "vacuum%s%s"
      (match c with Some e -> Printf.sprintf " older_than epoch %d" e | None -> "")
      (if d then " dry" else "")
  | Rx_index c -> "index " ^ c
  | Rx_readopt -> "flush + readopt"

(* The oracle's own page build: group by pid, rows ascending and encoded,
   bytes summed from the tuples. *)
let scratch_pages image =
  let span = 64 in
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
      (pid, Array.of_list (List.map (fun (a, v) -> (a, Row.of_tuple v)) rows), bytes) :: acc)
    by_pid []
  |> List.sort compare

let run_rx_schedule (retain, ops) =
  let fail fmt = Printf.ksprintf (fun s -> QCheck2.Test.fail_report s) fmt in
  let pool = Buffer_pool.create ~frames:4 (Page_store.in_memory ~page_size:1024 ()) in
  let adopt ?snaptime () =
    Snapshot_table.on_pool ?snaptime ~version_retain:retain ~name:"s" ~schema:emp_schema pool
  in
  let snap = ref (adopt ()) in
  let model = ref IntMap.empty in
  let image () = IntMap.bindings !model in
  (* Epoch -> its image when the next commit started; the head reads the model. *)
  let frozen = Hashtbl.create 16 in
  let head_epoch = ref (-1) and next_epoch = ref 1 in
  let indexed = ref [] in
  (* A held pin and the image it must read. *)
  let held = ref [] in
  let expected_of e =
    if e = !head_epoch then Some (image ())
    else Hashtbl.find_opt frozen e
  in
  let check_pin what (rt, img) =
    let e = Snapshot_table.txn_epoch rt in
    if Snapshot_table.txn_contents rt <> img then
      fail "%s: pin of epoch %d differs from its image" what e;
    if Snapshot_table.txn_count rt <> List.length img then
      fail "%s: pin of epoch %d miscounts" what e;
    if VS.page_table (Snapshot_table.txn_image rt) <> scratch_pages img then
      fail "%s: pin of epoch %d: page table differs from a from-scratch build" what e
  in
  let check_ring () =
    List.iter
      (fun vi ->
        let e = vi.VS.vi_epoch in
        match (Snapshot_table.read_txn ~epoch:e !snap, expected_of e) with
        | None, _ -> fail "retained epoch %d unpinnable" e
        | Some _, None -> fail "epoch %d retained but never recorded" e
        | Some rt, Some img ->
          check_pin "ring" (rt, img);
          Snapshot_table.release_txn rt)
      (Snapshot_table.versions !snap)
  in
  let check_head () =
    let s = !snap in
    if Snapshot_table.contents s <> image () then fail "head differs from the model";
    if Snapshot_table.count s <> IntMap.cardinal !model then fail "head count differs";
    (match Snapshot_table.validate s with Ok () -> () | Error e -> fail "validate: %s" e);
    List.iter
      (fun column ->
        let i = if column = "name" then 0 else 1 in
        let values = IntMap.fold (fun _ row acc -> row.(i) :: acc) !model [ Value.int (-1) ] in
        List.iter
          (fun v ->
            let scan =
              IntMap.fold (fun a row acc -> if Value.equal row.(i) v then a :: acc else acc) !model []
            in
            if Snapshot_table.lookup s ~column v <> List.rev scan then
              fail "lookup on %s differs from a filtered scan" column)
          (List.sort_uniq Value.compare values))
      !indexed
  in
  let pin_head () =
    match Snapshot_table.read_txn !snap with
    | Some rt -> held := (rt, image ()) :: !held
    | None -> fail "head unpinnable"
  in
  List.iter
    (fun op ->
      (match op with
      | Rx_commit (stream, k, fault) ->
        let epoch = !next_epoch in
        incr next_epoch;
        let frames =
          List.mapi
            (fun seq m -> Refresh_msg.encode_framed ~epoch ~seq m)
            (Test_properties.frames_of ~k (stream @ [ Refresh_msg.Snaptime (10 * epoch) ]))
        in
        let nf = List.length frames in
        let frames =
          match fault with
          | Rx_clean -> frames
          | Rx_drop i -> List.filteri (fun j _ -> j <> i mod nf) frames
          | Rx_garble (i, b, x) ->
            List.mapi
              (fun j f ->
                if j <> i mod nf then f
                else begin
                  let f = Bytes.copy f in
                  let p = b mod Bytes.length f in
                  Bytes.set f p (Char.chr (Char.code (Bytes.get f p) lxor x));
                  f
                end)
              frames
        in
        let before = Snapshot_table.last_committed_epoch !snap in
        if fault = Rx_clean then Hashtbl.replace frozen !head_epoch (image ());
        List.iter (Test_properties.deliver !snap) frames;
        if fault = Rx_clean then begin
          if Snapshot_table.last_committed_epoch !snap <> epoch then
            fail "clean epoch %d did not commit" epoch;
          model := List.fold_left Test_properties.model_apply !model stream;
          head_epoch := epoch
        end
        else begin
          if Snapshot_table.last_committed_epoch !snap <> before then
            fail "faulted epoch %d committed" epoch;
          (* The sender saw its stream fail: an epoch the fault left open
             (a lost marker) must not swallow the next raw message. *)
          Snapshot_table.abort_stream !snap ~reason:"faulted stream"
        end
      | Rx_raw msgs ->
        List.iter (Snapshot_table.apply !snap) msgs;
        model := List.fold_left Test_properties.model_apply !model msgs
      | Rx_pin_head -> pin_head ()
      | Rx_pin_old k -> (
        let ring = Snapshot_table.versions !snap in
        let e = (List.nth ring (k mod List.length ring)).VS.vi_epoch in
        if e = !head_epoch then pin_head ()
        else
          match Snapshot_table.read_txn ~epoch:e !snap with
          | Some rt -> held := (rt, Hashtbl.find frozen e) :: !held
          | None -> fail "retained epoch %d unpinnable" e)
      | Rx_release k -> (
        match !held with
        | [] -> ()
        | l ->
          let ((rt, _) as h) = List.nth l (k mod List.length l) in
          Snapshot_table.release_txn rt;
          held := List.filter (fun h' -> h' != h) l)
      | Rx_vacuum (cutoff, dry_run) ->
        let epochs () = List.map (fun vi -> vi.VS.vi_epoch) (Snapshot_table.versions !snap) in
        let ring0 = epochs () in
        let older_than = Option.map (fun e -> 10 * e) cutoff in
        ignore (Snapshot_table.vacuum ?older_than ~dry_run !snap : VS.vacuum_stats);
        if dry_run && epochs () <> ring0 then fail "dry-run vacuum moved the ring"
      | Rx_index column ->
        Snapshot_table.create_index !snap ~column;
        if not (List.mem column !indexed) then indexed := column :: !indexed
      | Rx_readopt ->
        (* The old table's pins end with it. *)
        List.iter (fun ((rt, _) as h) -> check_pin "pre-readopt" h; Snapshot_table.release_txn rt) !held;
        held := [];
        Snapshot_table.flush !snap;
        snap := adopt ~snaptime:(Snapshot_table.snaptime !snap) ();
        Hashtbl.reset frozen;
        head_epoch := -1;
        indexed := []);
      check_head ();
      List.iter (check_pin "held") !held;
      check_ring ())
    ops;
  List.iter (fun (rt, _) -> Snapshot_table.release_txn rt) !held;
  true

let prop_rx_schedules =
  QCheck2.Test.make ~name:"receiver schedules: head matches Figure 4, pins exact"
    ~count:200
    ~print:(fun (retain, ops) ->
      Printf.sprintf "retain %d:\n%s" retain (String.concat "\n" (List.map print_rx_op ops)))
    Gen.(pair (int_range 1 4) (list_size (int_range 1 25) rx_op_gen))
    run_rx_schedule

let suite =
  [
    Alcotest.test_case "version store: inert default path" `Quick test_vs_inert_default;
    Alcotest.test_case "version store: naive epochs exact" `Quick test_vs_epochs_exact;
    Alcotest.test_case "version store: naive zombie reclaim" `Quick test_vs_zombie_reclaim;
    Alcotest.test_case "version store: raw writes isolated (naive)" `Quick
      test_vs_raw_write_isolation;
    Alcotest.test_case "version store: an aborted commit publishes nothing" `Quick
      test_vs_abort_commit;
    Alcotest.test_case "version store: vacuum bytes = freed page tables" `Quick
      test_vs_vacuum_bytes;
    Alcotest.test_case "read txn pins across refresh (naive)" `Quick
      test_read_txn_pins_across_refresh;
    Alcotest.test_case "iter/fold fast paths match contents" `Quick
      test_iter_fold_fast_paths;
    Alcotest.test_case "txn_lookup at the pinned version" `Quick test_txn_lookup;
    Alcotest.test_case "vacuum between two frames of an open epoch" `Quick
      test_vacuum_mid_epoch;
    Alcotest.test_case "reader domains never see a torn epoch" `Quick
      test_reader_domains_never_tear;
    Alcotest.test_case "attach_snapshot adopts and resumes differentially" `Quick
      test_attach_snapshot_resumes;
    Alcotest.test_case "attach_snapshot surfaces Corrupt_snapshot typed" `Quick
      test_attach_corrupt_snapshot;
    Alcotest.test_case "attach_snapshot rejects a duplicate BaseAddr" `Quick
      test_attach_duplicate_baseaddr;
    Alcotest.test_case "fleet serves reads at pinned pre-refresh versions" `Quick
      test_fleet_pinned_reads;
    QCheck_alcotest.to_alcotest
      (prop_epochs_exact ~batch_size:1 "each retained epoch = its recorded image");
    QCheck_alcotest.to_alcotest
      (prop_epochs_exact ~batch_size:Refresh_msg.default_batch_size
         "batched: each retained epoch = its recorded image");
    QCheck_alcotest.to_alcotest prop_rx_schedules;
  ]
