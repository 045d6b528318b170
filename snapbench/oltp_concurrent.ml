(* oltp_concurrent: a 50k-row base on a file-backed WAL (fresh directory
   inside the working directory, group-commit window 32: every 32nd
   commit fsyncs, the same on every run).  One q = 25% Differential
   snapshot refreshed chunked (512 entries per chunk) and one q = 25%
   Log_based snapshot.  Open loop: updater transactions (table IX, page
   IX, entry X, payload update, commit) arrive as a pre-drawn Poisson
   process at a fixed rate well below capacity.  Arrivals falling due
   during a refresh or checkpoint are served at the chunk-hook
   boundaries; a denied lock retries at the next boundary.  Refreshes run
   on a fixed cadence, with a checkpoint every Nth and a vacuum every Mth
   refresh round.  Each update's latency runs from its due time.  The only
   workload with txn locks, WAL appends and fsyncs, chunked catch-up,
   log-based refresh and checkpoint/vacuum. *)

open Harness
open Common
module Wal = Snapdiff_wal.Wal
module Recovery = Snapdiff_wal.Recovery
module Txn = Snapdiff_txn.Txn
module Lock = Snapdiff_txn.Lock
module Heap = Snapdiff_storage.Heap
module Page_store = Snapdiff_storage.Page_store
module Annotations = Snapdiff_core.Annotations

type size = {
  rows : int;
  rate : float;  (** updater arrivals per second *)
  horizon_s : float;  (** pre-drawn schedule length; it repeats after this *)
  cadence_us : float;  (** one refresh round (both snapshots) per cadence *)
  checkpoint_every : int;  (** rounds *)
  vacuum_every : int;  (** rounds *)
}

let full =
  { rows = 50_000; rate = 1_000.0; horizon_s = 4.0; cadence_us = 250_000.0; checkpoint_every = 16;
    vacuum_every = 40 }

let small = { full with rows = 3_000; horizon_s = 1.0 }

let window = 32
let chunk_entries = 512

let specs =
  [ { sname = "d"; restrict = W.restrict_fraction 0.25; projection = None };
    { sname = "l"; restrict = W.restrict_fraction 0.25; projection = None } ]

type world = { base : Base_table.t; m : Manager.t; wal : Wal.t; path : string; addrs : Addr.t array }

let build c rows dir previous () =
  Option.iter (fun w -> Wal.close w.wal) !previous;
  let path = Filename.concat dir "base.wal" in
  let wal = Wal.create ~backend:(Wal.File path) ~group_commit_window:window () in
  let base = W.make_base ~wal ~clock:(Clock.create ()) () in
  let addrs = populate c base rows in
  let m = Manager.create ~chunk_entries () in
  Manager.register_base m base;
  List.iter
    (fun (s, method_) ->
      ignore
        (Manager.create_snapshot m ~name:s.sname ~base:(Base_table.name base) ~restrict:s.restrict
           ~method_ ()
          : Manager.refresh_report))
    (List.combine specs [ Manager.Differential; Manager.Log_based ]);
  List.iter (fun s -> ignore (Manager.refresh m s.sname : Manager.refresh_report)) specs;
  (* Set-up ends in steady state: a checkpoint truncates the population's
     log records, which every refresh round would otherwise wade through
     until the first measured checkpoint. *)
  ignore (Manager.checkpoint m (Base_table.name base) : Manager.checkpoint_report);
  let w = { base; m; wal; path; addrs } in
  previous := Some w;
  w

type phase = {
  c : calls;
  s : refresh_sums;
  refresh : Samples.t;  (** request time minus the client's hook time *)
  latency : Samples.t;  (** due -> committed *)
  queue : Samples.t;  (** due -> started *)
  lateness : Samples.t;  (** due -> started, for arrivals due while the client was idle *)
  lock : Samples.t;
  commit : Samples.t;
  checkpoint : Samples.t;
  vacuum : Samples.t;
  mutable granted : int;
  mutable requested : int;
  mutable committed : int;
  mutable user_bytes : int;
  mutable checkpoints : int;
  mutable ckpt_bytes : int;
  mutable ops : int;
  mutable wall_us : float;
  r : relative;
}

(* Recovery oracle: the base store's pages as they stand (what a crash
   would leave: dirty frames lost), plus a redo of the reopened log, must
   reproduce the live table's user rows. *)
let check_recovery w =
  attempt 1;
  Wal.sync w.wal;
  let expected = Base_table.to_user_list w.base in
  let src = Buffer_pool.store (Base_table.pool w.base) in
  let dst = Page_store.in_memory ~page_size:(Page_store.page_size src) () in
  for i = 0 to Page_store.page_count src - 1 do
    let j = Page_store.allocate dst in
    Page_store.write dst j (Page_store.read src i)
  done;
  let heap = Heap.on_pool (Buffer_pool.create dst) (Annotations.extend_schema W.schema) in
  let log = Wal.open_file w.path in
  Recovery.redo log (fun n -> if n = Base_table.name w.base then Some heap else None);
  Wal.close log;
  let got = List.map (fun (a, t) -> (a, Annotations.user_part t)) (Heap.to_list heap) in
  if List.length got <> List.length expected
     || not (List.for_all2 (fun (a, t) (a', t') -> a = a' && Tuple.equal t t') got expected)
  then fail "recovery: redo of the reopened WAL does not reproduce the base table"

let run ~size ~seed ~budget ~trace ~out =
  let rng = Rng.create seed in
  let rows = draw_rows rng size.rows in
  (* The arrival schedule over one horizon: Poisson offsets, targets and
     new tuples.  It repeats with period [horizon_s]. *)
  let offsets =
    let acc = ref 0.0 and l = ref [] in
    let h = size.horizon_s *. 1e6 in
    let continue = ref true in
    while !continue do
      acc := !acc -. (Float.log (1.0 -. Rng.float rng 1.0) /. size.rate *. 1e6);
      if !acc < h then l := !acc :: !l else continue := false
    done;
    Array.of_list (List.rev !l)
  in
  let targets = Array.map (fun _ -> Rng.int rng size.rows) offsets in
  let tuples = Array.map (fun i -> with_payload rows.(i) (1 + Rng.int rng 1_000_000)) targets in
  digest_inputs (rows, offsets, targets, tuples);
  let dir = Filename.concat out (Printf.sprintf "wal-%d" (Unix.getpid ())) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname out; out; dir ];
  let setup_calls = calls () in
  let previous = ref None in
  let w = setup_median 3 (build setup_calls rows dir previous) in
  let base = w.base and m = w.m in
  note "oltp_concurrent: %d rows on %d data pages, pool 128 frames, %.0f updates/s Poisson, WAL window %d"
    (Base_table.count base) (Base_table.data_pages base) size.rate window;
  let bname = Base_table.name base in
  let txm = Manager.txn_manager m in
  let horizon_us = size.horizon_s *. 1e6 in
  let period = Array.length offsets in
  let next = ref 0 in
  let measure b =
    let p =
      { c = calls (); s = sums (); refresh = Samples.create (); latency = Samples.create ();
        queue = Samples.create (); lateness = Samples.create (); lock = Samples.create ();
        commit = Samples.create (); checkpoint = Samples.create (); vacuum = Samples.create ();
        granted = 0; requested = 0; committed = 0; user_bytes = 0; checkpoints = 0;
        ckpt_bytes = 0; ops = 0; wall_us = 0.0; r = relative () }
    in
    (* A bounded (self-check) run schedules on a virtual clock: serving
       an update costs a fixed quarter of the mean gap, a hook boundary
       500 us, so which arrival lands at which boundary repeats exactly. *)
    let virtual_ = b.max_iters < max_int in
    let vclock = ref 0.0 in
    let clock () = if virtual_ then !vclock else now_us () in
    let t_start = clock () in
    let k0 = !next in
    let abs k = (float_of_int (k / period) *. horizon_us) +. offsets.(k mod period) in
    let due k = t_start +. abs k -. abs k0 in
    let pending = Queue.create () in
    let idle_since = ref t_start in
    (* One updater transaction; false if a lock was denied. *)
    let attempt_update ~idle k =
      let start = clock () in
      let d = due k in
      Samples.add p.queue (start -. d);
      if idle && d >= !idle_since then Samples.add p.lateness (start -. d);
      let j = k mod period in
      let addr = w.addrs.(targets.(j)) in
      op "client.update" (fun () ->
          let txn = span "txn.begin" (fun () -> Txn.begin_txn txm) in
          let lock res mode =
            p.requested <- p.requested + 1;
            match timed p.lock "txn.try_lock" (fun () -> Txn.try_lock txn res mode) with
            | `Granted ->
              p.granted <- p.granted + 1;
              true
            | `Would_block _ | `Deadlock -> false
          in
          let ok =
            lock (Base_table.lock_resource base) Lock.IX
            && lock (Base_table.page_lock_resource base (Addr.page addr)) Lock.IX
            && lock (Lock.Entry (bname, addr)) Lock.X
          in
          if ok then begin
            timed p.c.update "base_table.update" (fun () -> Base_table.update base addr tuples.(j));
            ignore (timed p.commit "txn.commit" (fun () -> Txn.commit txn) : int list);
            p.committed <- p.committed + 1;
            p.user_bytes <- p.user_bytes + Tuple.encoded_size tuples.(j);
            p.ops <- p.ops + 1;
            if virtual_ then vclock := !vclock +. (250_000.0 /. size.rate);
            Samples.add p.latency (clock () -. d)
          end
          else ignore (span "txn.abort" (fun () -> Txn.abort txn) : int list);
          ok)
    in
    let serve ~idle =
      let n = Queue.length pending in
      for _ = 1 to n do
        let k = Queue.pop pending in
        if not (attempt_update ~idle k) then Queue.push k pending
      done;
      while due !next <= clock () do
        let k = !next in
        incr next;
        if not (attempt_update ~idle k) then Queue.push k pending
      done
    in
    let hook_us = ref 0.0 in
    Manager.set_chunk_hook m
      (Some
         (fun () ->
           let t0 = now_us () in
           if virtual_ then vclock := !vclock +. 500.0;
           serve ~idle:false;
           hook_us := !hook_us +. (now_us () -. t0)));
    (* A background request: its time minus the time the client spent in
       its own hook serving updaters. *)
    let background samples name f =
      hook_us := 0.0;
      let t0 = now_us () in
      let v = span name f in
      Samples.add samples (now_us () -. t0 -. !hook_us);
      p.ops <- p.ops + 1;
      v
    in
    let pools = track_pools p.s [ base ] in
    let round = ref 0 in
    let next_round = ref (t_start +. size.cadence_us) in
    let wall0 = now_us () in
    let deadline = budget_deadline b in
    while !round < b.max_iters && now_us () < deadline do
      let now = clock () in
      if now >= !next_round then begin
        incr round;
        next_round := !next_round +. size.cadence_us;
        op "client.round" (fun () ->
            (* One refresh request refreshes every snapshot on the base,
               as [refresh_all] does in sparse_scan. *)
            background p.refresh "client.refresh_round" (fun () ->
                List.iter
                  (fun s ->
                    match span "manager.refresh" (fun () -> Manager.refresh m s.sname) with
                    | r -> add_report p.s r
                    | exception e -> fail "refresh %s: %s" s.sname (Printexc.to_string e))
                  specs);
            p.s.requests <- p.s.requests + 1;
            if !round mod size.checkpoint_every = 0 then begin
              match background p.checkpoint "manager.checkpoint" (fun () -> Manager.checkpoint m bname) with
              | cp ->
                p.checkpoints <- p.checkpoints + 1;
                p.ckpt_bytes <- p.ckpt_bytes + cp.Manager.cp_bytes_written
              | exception e -> fail "checkpoint: %s" (Printexc.to_string e)
            end;
            if !round mod size.vacuum_every = 0 then begin
              match background p.vacuum "manager.vacuum" (fun () -> Manager.vacuum m) with
              | _ -> ()
              | exception e -> fail "vacuum: %s" (Printexc.to_string e)
            end);
        (* Arrivals due while the probe runs are served between its slices. *)
        probe_after ~between:(fun () -> serve ~idle:false) p.r (Samples.last p.refresh);
        serve ~idle:false;
        idle_since := clock ()
      end
      else begin
        (* Idle: spin (a sleep would overshoot and show as lateness). *)
        let next_event = Float.min (due !next) !next_round in
        if next_event > now then (if virtual_ then vclock := next_event) else serve ~idle:true
      end
    done;
    Manager.set_chunk_hook m None;
    (* Stragglers denied at the last boundary complete now. *)
    serve ~idle:false;
    if not (Queue.is_empty pending) then fail "%d updaters never got their locks" (Queue.length pending);
    p.wall_us <- now_us () -. wall0;
    pools ();
    attempt (p.ops + Queue.length pending);
    p
  in
  let rate p = ratio (float_of_int p.ops) (p.wall_us /. 1e6) in
  let p = phases ~trace ~budget ~out measure rate in
  attempt 1;
  List.iter (fun s -> ignore (Manager.refresh m s.sname : Manager.refresh_report)) specs;
  let oc = calls () in
  List.iter (check_snapshot oc m base) specs;
  check_recovery w;
  Wal.close w.wal;
  (try
     Sys.remove w.path;
     Sys.rmdir dir
   with Sys_error _ -> ());
  emit_calls { setup_calls with update = p.c.update; pin = oc.pin; scan = oc.scan; get = oc.get };
  emit_refresh_layers p.s;
  latency ~scale:1e-3 "refresh_ms" "ms" p.refresh [ ("p80", 0.80) ];
  emit_relative p.r;
  latency ~windowed:true ~scale:1.0 "update_us" "us" p.latency [ ("p99", 0.99) ];
  metric "ops_per_s" "1/s" (rate p);
  emit_link p.s;
  metric "peak_heap_mb" "MB" (peak_heap_mb ());
  let appends = counter "wal.appends" and bytes = counter "wal.append_bytes" in
  metric "wal_bytes_per_user_byte" "ratio" (iratio bytes p.user_bytes);
  metric "wal.appends_per_op" "count" (iratio appends p.committed);
  metric "wal.append_bytes_per_op" "B" (iratio bytes p.committed);
  metric "wal.fsyncs_per_txn" "count" (iratio (counter "wal.fsyncs") p.committed);
  metric "txn.lock_grant_ratio" "ratio" (iratio p.granted p.requested);
  metric "txn.lock_requests" "count" (float_of_int p.requested);
  metric "txn.lock_us.p99" "us" (Samples.quantile p.lock 0.99);
  metric "txn.commit_us.p99" "us" (Samples.quantile p.commit 0.99);
  metric "txn.queue_us.p99" "us" (Samples.quantile p.queue 0.99);
  metric "client.lateness_us.p99" "us" (Samples.quantile p.lateness 0.99);
  note "client.lateness_us: n=%d arrivals due while the client was idle" (Samples.count p.lateness);
  metric "manager.checkpoint_ms.p50" "ms" (Samples.quantile p.checkpoint 0.5 /. 1e3);
  metric "manager.checkpoint_ms.max" "ms" (Samples.max p.checkpoint /. 1e3);
  metric "manager.vacuum_ms.p50" "ms" (Samples.quantile p.vacuum 0.5 /. 1e3);
  metric "manager.vacuum_ms.max" "ms" (Samples.max p.vacuum /. 1e3);
  metric "buffer_pool.writeback_bytes_per_checkpoint" "B" (iratio p.ckpt_bytes p.checkpoints)
