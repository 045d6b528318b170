(* Retention: WAL holds, version pins, and vacuum.

   Three layers under test:

   - WAL holds directly: a truncation stops at the lowest live hold and
     names the holds below its ceiling, move/release update the floor,
     with_hold is exception-safe, and a qcheck over random
     hold/move/release/truncate scripts never sees the log pass a hold;
   - Manager.vacuum: dry runs touch nothing, real runs reclaim expired
     versions and truncate the shared WAL to its hold floor, pinned
     epochs survive on the zombie list with byte-identical reads until
     their last release while the ring stays at its depth, each pin
     names its holder, and a vacuum fired mid-scan from the chunk hook
     is stopped by the scan's hold — the catch-up tail survives;
   - the qcheck property the subsystem promises: under a random
     interleaving of mutations, refreshes, pinned reads, checkpoints,
     and vacuums, no pinned read ever changes, no held log cursor is
     ever truncated away (log-based refresh never falls back to full),
     and no chunked scan ever escalates. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module VS = Snapdiff_mvcc.Version_store
module Wal = Snapdiff_wal.Wal
module Workload = Snapdiff_workload.Workload
module Rng = Snapdiff_util.Rng
module Metrics = Snapdiff_obs.Metrics
module Gen = QCheck2.Gen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let qual t =
  match Tuple.get t 2 with Value.Int q -> Int64.to_int q | _ -> -1

let expected_half base =
  List.filter
    (fun (_, u) -> qual u < Workload.qual_domain / 2)
    (Base_table.to_user_list base)

(* ------------------------------------------------------------------ *)
(* WAL holds *)

let holds = Alcotest.(list (pair string int))

(* A memory log of [n] records and the LSN of each record boundary,
   the log's end included. *)
let log_of n =
  let wal = Wal.create () in
  let lsns =
    List.init n (fun i -> Wal.append wal (Snapdiff_wal.Record.Begin { txn = i }))
  in
  (wal, lsns @ [ Wal.end_lsn wal ])

let test_truncation_stops_at_lowest_hold () =
  let wal, lsns = log_of 10 in
  let at i = List.nth lsns i in
  let a = Wal.hold wal ~holder:"scan:a" (at 3) in
  let b = Wal.hold wal ~holder:"cursor:b" (at 1) in
  Alcotest.check holds "holders, by lsn" [ ("cursor:b", at 1); ("scan:a", at 3) ] (Wal.holders wal);
  Alcotest.check holds "the truncation names both holds" [ ("cursor:b", at 1); ("scan:a", at 3) ]
    (Wal.truncate_before wal (Wal.end_lsn wal));
  checki "and stops at the lowest" (at 1) (Wal.oldest_retained wal);
  Wal.release_hold b;
  Alcotest.check holds "release raises the floor to the next hold" [ ("scan:a", at 3) ]
    (Wal.truncate_before wal (Wal.end_lsn wal));
  checki "which the log stops at" (at 3) (Wal.oldest_retained wal);
  Wal.move_hold a (at 8);
  checkb "a dry floor changes nothing" true
    (Wal.truncation_floor wal (at 9) = (at 8, [ ("scan:a", at 8) ])
    && Wal.oldest_retained wal = at 3);
  Alcotest.check holds "a hold at or above the ceiling does not stop it" []
    (Wal.truncate_before wal (at 5));
  checki "the truncation reached its ceiling" (at 5) (Wal.oldest_retained wal);
  Alcotest.check holds "a moved hold stops the next one" [ ("scan:a", at 8) ]
    (Wal.truncate_before wal (Wal.end_lsn wal));
  checki "at its new lsn" (at 8) (Wal.oldest_retained wal);
  Wal.release_hold a;
  Wal.release_hold a;
  Alcotest.check holds "release is idempotent" [] (Wal.holders wal);
  Alcotest.check holds "an unheld log truncates to its ceiling" []
    (Wal.truncate_before wal (Wal.end_lsn wal));
  checki "all of it" (Wal.end_lsn wal) (Wal.oldest_retained wal)

let test_with_hold_exception_safe () =
  let wal, lsns = log_of 4 in
  (match Wal.with_hold wal ~holder:"checkpoint:a" (List.nth lsns 1) (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "the exception should propagate"
  | exception Failure _ -> ());
  Alcotest.check holds "hold released on the exception path" [] (Wal.holders wal);
  checki "normal path returns the value" 5
    (Wal.with_hold wal ~holder:"checkpoint:a" (List.nth lsns 1) (fun () ->
         Alcotest.check holds "held while the function runs" [ ("checkpoint:a", List.nth lsns 1) ]
           (Wal.holders wal);
         5));
  Alcotest.check holds "and releases too" [] (Wal.holders wal)

(* Random scripts of appends, holds, moves, releases and truncations, on
   record boundaries the log still has.  After every truncation the log
   keeps the lowest live hold, and with no hold it reaches its ceiling;
   the truncation names exactly the holds below the ceiling. *)
let prop_truncation_never_passes_a_hold =
  QCheck2.Test.make ~count:200 ~name:"wal holds: no truncation passes a hold"
    (Gen.list_size (Gen.int_range 5 60) (Gen.pair (Gen.int_range 0 4) Gen.nat))
    (fun script ->
      let wal, lsns = log_of 8 in
      let bounds = ref lsns in
      let live = ref [] in
      let pick l k = List.nth l (k mod List.length l) in
      let retained () = List.filter (fun l -> l >= Wal.oldest_retained wal) !bounds in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 ->
            ignore (Wal.append wal (Snapdiff_wal.Record.Commit { txn = k }) : Wal.lsn);
            bounds := !bounds @ [ Wal.end_lsn wal ];
            true
          | 1 ->
            let lsn = pick (retained ()) k in
            live := (Wal.hold wal ~holder:(Printf.sprintf "h%d" k) lsn, lsn) :: !live;
            true
          | 2 when !live <> [] ->
            let h, _ = pick !live k in
            let lsn = pick (retained ()) (k / 7) in
            Wal.move_hold h lsn;
            live := List.map (fun (h', l) -> if h' == h then (h', lsn) else (h', l)) !live;
            true
          | 3 when !live <> [] ->
            let h, _ = pick !live k in
            Wal.release_hold h;
            live := List.filter (fun (h', _) -> h' != h) !live;
            true
          | _ ->
            let ceiling = pick (retained ()) k in
            let gated = Wal.truncate_before wal ceiling in
            let lowest = List.fold_left (fun acc (_, l) -> min acc l) max_int !live in
            let below = List.filter (fun (_, l) -> l < ceiling) (Wal.holders wal) in
            Wal.oldest_retained wal <= lowest
            && (!live <> [] || Wal.oldest_retained wal = ceiling)
            && gated = below)
        script)

(* ------------------------------------------------------------------ *)
(* Manager.vacuum over a WAL-backed workload *)

let mk_workload ?(retain = 4) ?(n = 200) ?(rounds = 5) () =
  let rng = Rng.create 0xACE in
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base = Workload.make_base ~wal ~clock () in
  Workload.populate base ~rng ~n;
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:(Base_table.name base)
       ~restrict:(Workload.restrict_fraction 0.5) ~method_:Manager.Differential
       ~version_retain:retain ()
      : Manager.refresh_report);
  for _ = 1 to rounds do
    ignore (Workload.update_fraction base ~rng ~u:0.2 ~mix:Workload.churn : int);
    ignore (Manager.refresh m "s" : Manager.refresh_report)
  done;
  (m, base, wal, clock)

let test_vacuum_dry_run_touches_nothing () =
  let m, _, wal, clock = mk_workload () in
  let versions0 = Manager.snapshot_versions m "s" in
  let oldest0 = Wal.oldest_retained wal in
  let rep = Manager.vacuum ~older_than:(Clock.now clock) ~dry_run:true m in
  checkb "flagged as a dry run" true rep.Manager.vac_dry_run;
  let sv = List.hd rep.Manager.vac_snapshots in
  checkb "reports reclaimable versions" true (sv.Manager.sv_reclaimed > 0);
  checkb "reports reclaimable bytes" true (sv.Manager.sv_bytes > 0);
  let wv = List.hd rep.Manager.vac_wals in
  checkb "reports reclaimable log bytes" true (wv.Manager.wv_log_bytes_reclaimed > 0);
  checkb "the ring is untouched" true (Manager.snapshot_versions m "s" = versions0);
  checki "the WAL is untouched" oldest0 (Wal.oldest_retained wal)

let test_vacuum_reclaims_and_truncates () =
  let m, base, wal, clock = mk_workload ~retain:4 () in
  let oldest0 = Wal.oldest_retained wal in
  let rep = Manager.vacuum ~older_than:(Clock.now clock) m in
  checkb "not a dry run" false rep.Manager.vac_dry_run;
  let sv = List.hd rep.Manager.vac_snapshots in
  checki "all non-head versions reclaimed" 3 sv.Manager.sv_reclaimed;
  checkb "freed bytes counted" true (sv.Manager.sv_bytes > 0);
  checki "nothing zombied without pins" 0 sv.Manager.sv_zombied;
  let wv = List.hd rep.Manager.vac_wals in
  checkb "WAL truncated" true
    (wv.Manager.wv_log_bytes_reclaimed > 0 && Wal.oldest_retained wal > oldest0);
  checki "reported floor = the log's oldest retained LSN" (Wal.oldest_retained wal)
    wv.Manager.wv_truncated_to;
  checki "only the head survives" 1 (List.length (Manager.snapshot_versions m "s"));
  let snap = Manager.snapshot_table m "s" in
  checkb "the live head is still faithful" true
    (Snapshot_table.contents snap = expected_half base);
  (* The truncated log still serves the next differential refresh. *)
  let rng = Rng.create 0xF00 in
  ignore (Workload.update_fraction base ~rng ~u:0.2 ~mix:Workload.churn : int);
  let r = Manager.refresh m "s" in
  checkb "refresh after vacuum does not escalate" false r.Manager.escalated;
  checkb "and stays faithful" true (Snapshot_table.contents snap = expected_half base)

let test_vacuum_spares_pinned_epoch () =
  let m, _, _, clock = mk_workload ~retain:3 () in
  let oldest =
    match List.rev (Manager.snapshot_versions m "s") with
    | vi :: _ -> vi
    | [] -> Alcotest.fail "no retained versions"
  in
  let rt =
    Snapshot_table.read_txn_exn ~epoch:oldest.VS.vi_epoch ~holder:"nightly-report"
      (Manager.snapshot_table m "s")
  in
  let image0 = Snapshot_table.txn_contents rt in
  let zr0 = Metrics.counter_value Metrics.global "mvcc.zombies_reclaimed" in
  let rep = Manager.vacuum ~older_than:(Clock.now clock) m in
  let sv = List.hd rep.Manager.vac_snapshots in
  Alcotest.(check (list (pair string int))) "the pinned reader is named"
    [ ("nightly-report", oldest.VS.vi_epoch) ] sv.Manager.sv_leases;
  checki "the pinned candidate was zombied, not freed" 1 sv.Manager.sv_zombied;
  checki "the unpinned expired version was freed" 1 sv.Manager.sv_reclaimed;
  checkb "the pinned epoch left the ring" true
    (not
       (List.exists
          (fun vi -> vi.VS.vi_epoch = oldest.VS.vi_epoch)
          (Manager.snapshot_versions m "s")));
  checkb "pinned reads stay byte-identical after the vacuum" true
    (Snapshot_table.txn_contents rt = image0);
  (* The last release frees the zombie; nothing else is left to vacuum. *)
  Snapshot_table.release_txn rt;
  checkb "release freed the zombie" true
    (Metrics.counter_value Metrics.global "mvcc.zombies_reclaimed" > zr0);
  checki "no zombie left" 0 (Snapshot_table.zombie_count (Manager.snapshot_table m "s"));
  let rep2 = Manager.vacuum ~older_than:(Clock.now clock) m in
  let sv2 = List.hd rep2.Manager.vac_snapshots in
  checki "a second vacuum finds only the head" 0 sv2.Manager.sv_examined;
  checki "which it keeps" 1 (List.length (Manager.snapshot_versions m "s"))

(* A pin holds the one version it reads, and the ring holds the rest: a
   reader pinned at an old epoch through many refreshes leaves the ring
   at its depth and its own epoch on the zombie list. *)
let test_pin_holds_only_its_epoch () =
  List.iter
    (fun retain ->
      let m, base, _, clock = mk_workload ~retain ~rounds:0 () in
      let snap = Manager.snapshot_table m "s" in
      let rt = Snapshot_table.read_txn_exn snap in
      let image0 = Snapshot_table.txn_contents rt in
      let rng = Rng.create 0x31 in
      let refresh () =
        ignore (Workload.update_fraction base ~rng ~u:0.2 ~mix:Workload.churn : int);
        ignore (Manager.refresh m "s" : Manager.refresh_report)
      in
      (* Fill the ring, so the next refresh evicts the pinned epoch. *)
      for _ = 2 to retain do
        refresh ()
      done;
      for i = 1 to 10 do
        refresh ();
        let at = Printf.sprintf "retain %d, refresh %d: " retain i in
        checki (at ^ "the ring stays at its depth") retain
          (List.length (Manager.snapshot_versions m "s"));
        checki (at ^ "the pinned epoch is the one zombie") 1 (Snapshot_table.zombie_count snap)
      done;
      let sv = List.hd (Manager.vacuum ~older_than:(Clock.now clock) m).Manager.vac_snapshots in
      checki "the vacuum frees every non-head ring version" (retain - 1) sv.Manager.sv_reclaimed;
      checki "and zombies nothing more" 0 sv.Manager.sv_zombied;
      checki "the pinned epoch is still held" 1 (Snapshot_table.zombie_count snap);
      checkb "and reads its image" true (Snapshot_table.txn_contents rt = image0);
      Snapshot_table.release_txn rt;
      checki "the release frees the zombie" 0 (Snapshot_table.zombie_count snap);
      checki "only the head is left" 1 (List.length (Manager.snapshot_versions m "s")))
    [ 1; 3 ]

(* A cascade child whose link is down holds one parent epoch by its pin,
   and only that one: the parent's ring stays at its depth through the
   outage. *)
let test_cascade_outage_holds_one_epoch () =
  let m, base, _, _ = mk_workload ~retain:1 ~rounds:0 () in
  let parent = Manager.snapshot_table m "s" in
  let child = Cascade.attach ~upstream:parent ~name:"c" () in
  ignore (Cascade.refresh child : Manager.refresh_report);
  Snapdiff_net.Link.set_up (Cascade.link child) false;
  let rng = Rng.create 0x46 in
  for i = 1 to 10 do
    ignore (Workload.update_fraction base ~rng ~u:0.2 ~mix:Workload.churn : int);
    ignore (Manager.refresh m "s" : Manager.refresh_report);
    ignore (Cascade.refresh child : Manager.refresh_report);
    let at = Printf.sprintf "parent refresh %d: " i in
    checki (at ^ "the parent ring stays at its depth") 1
      (List.length (Manager.snapshot_versions m "s"));
    checki (at ^ "the child's epoch is the one zombie") 1 (Snapshot_table.zombie_count parent)
  done;
  Snapdiff_net.Link.set_up (Cascade.link child) true;
  checki "the child commits once its link is back" 0 (Cascade.refresh child).Manager.aborts;
  checki "and lets its old epoch go" 0 (Snapshot_table.zombie_count parent)

(* Each pin names its holder: [holders] and the dry run list every live
   pin, a release drops exactly its own entry, and the entries follow a
   version onto the zombie list. *)
let test_pin_holders () =
  let m, base, _, clock = mk_workload ~retain:2 ~rounds:1 () in
  let snap = Manager.snapshot_table m "s" in
  let e = Snapshot_table.last_committed_epoch snap in
  let a1 = Snapshot_table.read_txn_exn ~holder:"a" snap in
  let a2 = Snapshot_table.read_txn_exn ~holder:"a" snap in
  let b = Snapshot_table.read_txn_exn ~holder:"b" snap in
  let d = Option.get (Manager.read_txn m "s") in
  let pairs = Alcotest.(list (pair string int)) in
  Alcotest.check pairs "every pin is listed" [ ("a", e); ("a", e); ("b", e); ("s", e) ]
    (Snapshot_table.holders snap);
  let rep = Manager.vacuum ~dry_run:true ~older_than:(Clock.now clock) m in
  Alcotest.check pairs "and named by the dry run" (Snapshot_table.holders snap)
    (List.hd rep.Manager.vac_snapshots).Manager.sv_leases;
  Snapshot_table.release_txn a1;
  Snapshot_table.release_txn a1;
  Alcotest.check pairs "releasing a twice drops one entry" [ ("a", e); ("b", e); ("s", e) ]
    (Snapshot_table.holders snap);
  let rng = Rng.create 0x7 in
  for _ = 1 to 2 do
    ignore (Workload.update_fraction base ~rng ~u:0.2 ~mix:Workload.churn : int);
    ignore (Manager.refresh m "s" : Manager.refresh_report)
  done;
  checki "the held epoch left the ring" 1 (Snapshot_table.zombie_count snap);
  Alcotest.check pairs "its holders followed it" [ ("a", e); ("b", e); ("s", e) ]
    (Snapshot_table.holders snap);
  List.iter Snapshot_table.release_txn [ a2; b; d ];
  Alcotest.check pairs "none once released" [] (Snapshot_table.holders snap);
  checki "and no zombie" 0 (Snapshot_table.zombie_count snap)

(* A cascade child whose link is down keeps its parent epoch: the
   parent's dry run names it as the holder. *)
let test_vacuum_names_cascade_holder () =
  let m, base, _, clock = mk_workload ~retain:3 () in
  let child = Cascade.attach ~upstream:(Manager.snapshot_table m "s") ~name:"c" () in
  ignore (Cascade.refresh child : Manager.refresh_report);
  let held = Cascade.held_epoch child in
  Snapdiff_net.Link.set_up (Cascade.link child) false;
  ignore (Workload.update_fraction base ~rng:(Rng.create 0xB0B) ~u:0.2 ~mix:Workload.churn : int);
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  checki "the child's refresh aborts" 1 (Cascade.refresh child).Manager.aborts;
  checki "the child keeps its epoch" held (Cascade.held_epoch child);
  let rep = Manager.vacuum ~older_than:(Clock.now clock) ~dry_run:true m in
  Alcotest.(check (list (pair string int))) "the parent's dry run names the child"
    [ ("cascade:c", held) ] (List.hd rep.Manager.vac_snapshots).Manager.sv_leases

let test_vacuum_gated_by_live_scan () =
  let clock = Clock.create () in
  let wal = Wal.create () in
  let rng = Rng.create 0xBEA7 in
  let base = Workload.make_base ~wal ~clock () in
  Workload.populate base ~rng ~n:60;
  let m = Manager.create ~chunk_entries:8 () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:(Base_table.name base)
       ~restrict:(Workload.restrict_fraction 0.5) ~method_:Manager.Differential ()
      : Manager.refresh_report);
  ignore (Workload.update_fraction base ~rng ~u:0.3 ~mix:Workload.churn : int);
  let lsn0 = Wal.end_lsn wal in
  let vac_report = ref None in
  let in_hook = ref false in
  Manager.set_chunk_hook m
    (Some
       (fun () ->
         (* The vacuum's own checkpoint yields here too; the guard keeps
            it from recursing. *)
         if (not !in_hook) && !vac_report = None then begin
           in_hook := true;
           (* Mutate mid-scan so the catch-up phase has a WAL tail to
              replay — a tail the vacuum must NOT truncate away. *)
           ignore (Workload.update_fraction base ~rng ~u:0.1 ~mix:Workload.churn : int);
           vac_report := Some (Manager.vacuum ~older_than:(Clock.now clock) m);
           in_hook := false
         end));
  let report = Manager.refresh m "s" in
  Manager.set_chunk_hook m None;
  let rep = Option.get !vac_report in
  let wv = List.hd rep.Manager.vac_wals in
  checkb "the scan's hold stopped the truncation" true
    (List.mem ("scan:" ^ Base_table.name base, lsn0) wv.Manager.wv_gated);
  checkb "the floor stopped at the scan's start LSN" true
    (wv.Manager.wv_truncated_to <= lsn0);
  checkb "the held scan did not escalate" false report.Manager.escalated;
  checkb "catch-up found its tail" true (report.Manager.catchup_records > 0);
  let snap = Manager.snapshot_table m "s" in
  checkb "snapshot faithful" true (Snapshot_table.contents snap = expected_half base);
  checkb "snapshot valid" true (Snapshot_table.validate snap = Ok ())

(* A log-based snapshot's cursor holds the log under the snapshot's name:
   the vacuum's dry run and a checkpoint name it [cursor:<snap>] at the
   cursor's LSN, a refresh moves it, and dropping the snapshot releases
   it. *)
let test_cursor_hold_named () =
  let rng = Rng.create 0xC0 in
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base = Workload.make_base ~wal ~clock () in
  Workload.populate base ~rng ~n:60;
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"lb" ~base:(Base_table.name base)
       ~restrict:(Workload.restrict_fraction 0.5) ~method_:Manager.Log_based ()
      : Manager.refresh_report);
  let cursor = Wal.end_lsn wal in
  Alcotest.check holds "the log lists the cursor's hold" [ ("cursor:lb", cursor) ]
    (Wal.holders wal);
  ignore (Workload.update_fraction base ~rng ~u:0.2 ~mix:Workload.churn : int);
  let dry = List.hd (Manager.vacuum ~dry_run:true m).Manager.vac_wals in
  Alcotest.check holds "the dry run names it" [ ("cursor:lb", cursor) ] dry.Manager.wv_gated;
  let cp = Manager.checkpoint m (Base_table.name base) in
  Alcotest.check holds "so does the checkpoint" [ ("cursor:lb", cursor) ] cp.Manager.cp_gated;
  checki "which stops at the cursor" cursor cp.Manager.cp_truncated_to;
  let r = Manager.refresh m "lb" in
  checkb "the refresh read the log" true (r.Manager.method_used = Manager.Used_log_based);
  Alcotest.check holds "and moved the hold to the new cursor" [ ("cursor:lb", Wal.end_lsn wal) ]
    (Wal.holders wal);
  Manager.drop_snapshot m "lb";
  Alcotest.check holds "dropping the snapshot releases it" [] (Wal.holders wal)

(* ------------------------------------------------------------------ *)
(* Fleet pinned reads overlapping a vacuum: the scheduler's pre-refresh
   pins are ordinary read transactions, so a vacuum between ticks parks
   their versions on the zombie list and reads stay byte-identical. *)

let test_fleet_pinned_reads_survive_vacuum () =
  let module Fleet = Snapdiff_fleet.Fleet in
  let rng = Rng.create 11 in
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base = Workload.make_base ~name:"base0" ~wal ~clock () in
  Workload.populate base ~rng ~n:150;
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"s0" ~base:"base0"
       ~restrict:(Workload.restrict_fraction 0.5) ~version_retain:3 ()
      : Manager.refresh_report);
  let f = Fleet.create m in
  let dt = 50_000.0 in
  Fleet.register f ~name:"s0" ~slo_us:dt;
  Fleet.set_pinned_reads f 3;
  (* Hold our own pin on the pre-tick head across the vacuum too. *)
  let rt = Option.get (Manager.read_txn m "s0") in
  let image0 = Snapshot_table.txn_contents rt in
  for i = 1 to 4 do
    ignore (Workload.mutate_zipf base ~rng ~ops:40 ~theta:0.8 ~mix:Workload.churn : int);
    let r = Fleet.tick f ~now_us:(float_of_int i *. dt) in
    checkb "pinned reads served this tick" true (r.Fleet.tr_pinned_reads > 0);
    ignore (Manager.vacuum ~older_than:(Clock.now clock) m : Manager.vacuum_report)
  done;
  checkb "the held pin still reads its original image" true
    (Snapshot_table.txn_contents rt = image0);
  checkb "fleet served pinned reads throughout" true
    ((Fleet.stats f).Fleet.st_pinned_reads >= 12);
  checki "no fleet failures" 0 (Fleet.stats f).Fleet.st_failures;
  Snapshot_table.release_txn rt;
  (* With every pin gone, one more vacuum leaves just the live head. *)
  ignore (Manager.vacuum ~older_than:(Clock.now clock) m : Manager.vacuum_report);
  checki "only the head survives once released" 1
    (List.length (Manager.snapshot_versions m "s0"))

(* ------------------------------------------------------------------ *)
(* The qcheck property: a random interleaving of mutations, refreshes,
   pinned reads, checkpoints, and vacuums never loses a pinned epoch
   (every pinned read stays byte-identical for its lifetime, and the
   snapshot lists one holder per pin), never truncates a held log
   cursor (log-based refresh never falls back to full), and never
   escalates a chunked differential scan. *)

let prop_interleaving_never_loses_leases =
  QCheck2.Test.make ~count:25
    ~name:"interleaved vacuums/checkpoints never lose a leased LSN or epoch"
    (Gen.list_size (Gen.int_range 8 30) (Gen.int_range 0 999))
    (fun script ->
      let rng = Rng.create 0x5EED in
      let clock = Clock.create () in
      let wal = Wal.create () in
      let base = Workload.make_base ~wal ~clock () in
      Workload.populate base ~rng ~n:120;
      let m = Manager.create ~chunk_entries:8 () in
      Manager.register_base m base;
      ignore
        (Manager.create_snapshot m ~name:"d" ~base:(Base_table.name base)
           ~restrict:(Workload.restrict_fraction 0.5) ~method_:Manager.Differential
           ~version_retain:3 ()
          : Manager.refresh_report);
      ignore
        (Manager.create_snapshot m ~name:"lb" ~base:(Base_table.name base)
           ~restrict:(Workload.restrict_fraction 0.3) ~method_:Manager.Log_based ()
          : Manager.refresh_report);
      let pins = ref [] in
      let ok = ref true in
      let why = ref "" in
      let fail_if ?(reason = "?") c = if c && !ok then (ok := false; why := reason) in
      let check_pins () =
        List.iter
          (fun (rt, img) -> fail_if ~reason:"pin changed" (Snapshot_table.txn_contents rt <> img))
          !pins;
        fail_if ~reason:"holders <> pins"
          (List.length (Snapshot_table.holders (Manager.snapshot_table m "d"))
          <> List.length !pins)
      in
      List.iter
        (fun k ->
          (match k mod 7 with
          | 0 | 1 ->
            ignore (Workload.update_fraction base ~rng ~u:0.15 ~mix:Workload.churn : int)
          | 2 ->
            let r = Manager.refresh m "d" in
            fail_if ~reason:"escalated" r.Manager.escalated;
            (* The cursor's hold keeps the log tail: log-based must never
               be forced into the truncated-past-cursor full fallback. *)
            let rl = Manager.refresh m "lb" in
            fail_if ~reason:"lb fell back" (rl.Manager.method_used <> Manager.Used_log_based)
          | 3 -> (
            match Manager.read_txn m "d" with
            | Some rt -> pins := (rt, Snapshot_table.txn_contents rt) :: !pins
            | None -> fail_if ~reason:"head pin refused" true)
          | 4 -> (
            match !pins with
            | (rt, _) :: tl ->
              Snapshot_table.release_txn rt;
              pins := tl
            | [] -> ())
          | 5 ->
            ignore
              (Manager.checkpoint m (Base_table.name base) : Manager.checkpoint_report)
          | _ ->
            let dry_run = k mod 2 = 0 in
            ignore
              (Manager.vacuum ~older_than:(Clock.now clock) ~dry_run m
                : Manager.vacuum_report));
          check_pins ())
        script;
      (* A closing refresh folds in any trailing mutations before the
         faithfulness comparison. *)
      let rf = Manager.refresh m "d" in
      fail_if ~reason:"final refresh escalated" rf.Manager.escalated;
      check_pins ();
      let live_ok =
        Snapshot_table.contents (Manager.snapshot_table m "d") = expected_half base
      in
      List.iter (fun (rt, _) -> Snapshot_table.release_txn rt) !pins;
      if not !ok then Printf.eprintf "lifecycle prop: %s\n%!" !why;
      if not live_ok then Printf.eprintf "lifecycle prop: live image diverged\n%!";
      !ok && live_ok)

let suite =
  [
    Alcotest.test_case "wal holds: truncation stops at lowest" `Quick
      test_truncation_stops_at_lowest_hold;
    Alcotest.test_case "wal holds: with_hold is exception-safe" `Quick
      test_with_hold_exception_safe;
    QCheck_alcotest.to_alcotest prop_truncation_never_passes_a_hold;
    Alcotest.test_case "vacuum: dry run touches nothing" `Quick
      test_vacuum_dry_run_touches_nothing;
    Alcotest.test_case "vacuum: reclaims versions and truncates the WAL" `Quick
      test_vacuum_reclaims_and_truncates;
    Alcotest.test_case "vacuum: pinned epoch survives as a zombie" `Quick
      test_vacuum_spares_pinned_epoch;
    Alcotest.test_case "vacuum: dry run names a cascade child's held epoch" `Quick
      test_vacuum_names_cascade_holder;
    Alcotest.test_case "pins: a held reader keeps its epoch, not the ring" `Quick
      test_pin_holds_only_its_epoch;
    Alcotest.test_case "pins: a cascade outage holds one parent epoch" `Quick
      test_cascade_outage_holds_one_epoch;
    Alcotest.test_case "pins: holders listed, released and zombied" `Quick
      test_pin_holders;
    Alcotest.test_case "vacuum: gated by a live chunked scan" `Quick
      test_vacuum_gated_by_live_scan;
    Alcotest.test_case "vacuum: a log cursor's hold is named" `Quick test_cursor_hold_named;
    Alcotest.test_case "fleet pinned reads survive interleaved vacuums" `Quick
      test_fleet_pinned_reads_survive_vacuum;
    QCheck_alcotest.to_alcotest prop_interleaving_never_loses_leases;
  ]
