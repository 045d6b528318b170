(* sparse_scan: a 100k-row Deferred base without a WAL behind the default
   128-frame pool (the table is ~1.8k pages, so the data is larger than
   the cache).  Four Differential snapshots (q = 1%, 5%, 5% projected,
   25%) are refreshed together by [Manager.refresh_all], the group-scan
   path.  Closed loop, one client: ~0.5% payload-only updates, then one
   group refresh.  Loads differential/fixup/buffer_pool; bypasses the
   link's bulk traffic, apply, mvcc (retain = 1), txn and wal. *)

open Harness
open Common

type size = { rows : int; cycle : int }

let full = { rows = 100_000; cycle = 64 }
let small = { rows = 4_000; cycle = 8 }

let specs =
  [ { sname = "s01"; restrict = W.restrict_fraction 0.01; projection = None };
    { sname = "s05"; restrict = W.restrict_fraction 0.05; projection = None };
    { sname = "s05p"; restrict = W.restrict_fraction 0.05; projection = Some [ "id"; "qual"; "payload" ] };
    { sname = "s25"; restrict = W.restrict_fraction 0.25; projection = None } ]

let build c rows () =
  let base = W.make_base ~clock:(Clock.create ()) () in
  let addrs = populate c base rows in
  let m = Manager.create () in
  Manager.register_base m base;
  List.iter
    (fun s ->
      ignore
        (Manager.create_snapshot m ~name:s.sname ~base:(Base_table.name base) ~restrict:s.restrict
           ?projection:s.projection ~method_:Manager.Differential ()
          : Manager.refresh_report))
    specs;
  (* The first refresh after population fixes up every entry's
     annotations; it is set-up work, not part of the steady state. *)
  Common.add_results (sums ()) (Manager.refresh_all m);
  (base, m, addrs)

type phase = {
  c : calls;
  refresh : Samples.t;
  s : refresh_sums;
  mutable ops : int;
  tp : Throughput.t;
  r : relative;
}

let run ~size ~seed ~budget ~trace ~out =
  let rng = Rng.create seed in
  let rows = draw_rows rng size.rows in
  let per_iter = size.rows / 200 in
  (* One cycle of update batches, drawn before timing; the loop wraps
     around it (payload-only updates stay valid on a table that never
     loses rows). *)
  let targets = Array.init (size.cycle * per_iter) (fun _ -> Rng.int rng size.rows) in
  let tuples = Array.map (fun i -> with_payload rows.(i) (1 + Rng.int rng 1_000_000)) targets in
  digest_inputs (rows, targets, tuples);
  let setup_calls = calls () in
  let base, m, addrs = setup_median 3 (build setup_calls rows) in
  note "sparse_scan: %d rows on %d data pages, pool 128 frames" (Base_table.count base)
    (Base_table.data_pages base);
  let cursor = ref 0 in
  let measure b =
    let p = { c = calls (); refresh = Samples.create (); s = sums (); ops = 0; tp = Throughput.create ();
        r = relative () } in
    let pools = track_pools p.s [ base ] in
    let deadline = budget_deadline b in
    let iters = ref 0 in
    while !iters < b.max_iters && now_us () < deadline do
      incr iters;
      let t0 = now_us () and ops0 = p.ops in
      op "client.cycle" (fun () ->
          for _ = 1 to per_iter do
            let j = !cursor in
            cursor := (j + 1) mod Array.length targets;
            timed p.c.update "base_table.update" (fun () ->
                Base_table.update base addrs.(targets.(j)) tuples.(j));
            p.ops <- p.ops + 1
          done;
          let results = timed p.refresh "manager.refresh_all" (fun () -> Manager.refresh_all m) in
          add_results p.s results;
          p.s.requests <- p.s.requests + 1;
          p.ops <- p.ops + 1);
      Throughput.add p.tp ~ops:(p.ops - ops0) ~busy_us:(now_us () -. t0);
      probe_after p.r (Samples.last p.refresh)
    done;
    pools ();
    attempt p.ops;
    p
  in
  let rate p = Throughput.rate p.tp in
  let p = phases ~trace ~budget ~out measure rate in
  (* Final refresh, then every image must equal its base restriction. *)
  attempt 1;
  add_results (sums ()) (Manager.refresh_all m);
  let oc = calls () in
  List.iter (check_snapshot oc m base) specs;
  emit_calls { setup_calls with update = p.c.update; pin = oc.pin; scan = oc.scan; get = oc.get };
  emit_refresh_layers p.s;
  latency ~scale:1e-3 "refresh_ms" "ms" p.refresh [ ("p80", 0.80) ];
  emit_relative p.r;
  latency ~windowed:true ~scale:1.0 "update_us" "us" p.c.update [ ("p99", 0.99) ];
  metric "ops_per_s" "1/s" (Throughput.windowed p.tp);
  emit_link p.s;
  metric "peak_heap_mb" "MB" (peak_heap_mb ())
