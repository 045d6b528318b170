(* fleet_tenants: 1,000 snapshots over 250 small tenant bases (sizes
   64-512, Workload.make_tenants), each base with an in-memory WAL so the
   scheduler may route a member to the log-based method.  Default Fleet
   config; staleness SLOs log-uniform over 2-20 ticks of 50 ms virtual
   time.  Closed loop, one client: each tenant's bursty arrivals for the
   tick are applied from pre-drawn targets, then one [Fleet.tick] is
   timed.  The only workload that loads the fleet scheduler, refresh_all
   at scale and the cost-model method choice; bypasses txn and the
   file-backed WAL. *)

open Harness
open Common
module Fleet = Snapdiff_fleet.Fleet
module Wal = Snapdiff_wal.Wal

type size = { tenants : int; snaps_per : int; cycle : int }

let full = { tenants = 250; snaps_per = 4; cycle = 64 }
let small = { tenants = 20; snaps_per = 4; cycle = 8 }

let dt_us = Fleet.default_config.Fleet.lookahead_us

type mutation = { tenant : int; kind : kind; slot : int; qual : int; payload : int }

type world = {
  f : Fleet.t;
  m : Manager.t;
  bases : Base_table.t array;
  lives : live array;
  specs : (spec * int) list;  (** each snapshot with its tenant *)
}

let build c tenant_rows snap_specs () =
  let m = Manager.create () in
  let f = Fleet.create m in
  let bases =
    Array.mapi
      (fun i rows ->
        let base =
          W.make_base ~wal:(Wal.create ()) ~name:(Printf.sprintf "t%d" i) ~clock:(Clock.create ()) ()
        in
        ignore (populate c base rows : Addr.t array);
        Manager.register_base m base;
        base)
      tenant_rows
  in
  List.iter
    (fun (s, ti, slo_us) ->
      ignore
        (Manager.create_snapshot m ~name:s.sname ~base:(Base_table.name bases.(ti)) ~restrict:s.restrict ()
          : Manager.refresh_report);
      Fleet.register f ~name:s.sname ~slo_us)
    snap_specs;
  { f; m; bases; lives = Array.map live_of bases; specs = List.map (fun (s, ti, _) -> (s, ti)) snap_specs }

type phase = {
  c : calls;
  s : refresh_sums;
  tick : Samples.t;
  mutable ops : int;
  tp : Throughput.t;
  mutable ticks : int;
  mutable dispatched : int;
  mutable grouped : int;
  mutable deferred : int;
  mutable misses : int;
  mutable committed : int;
  r : relative;
}

let run ~size ~seed ~budget ~trace ~out =
  let rng = Rng.create seed in
  let pop = W.make_tenants ~rng ~tenants:size.tenants ~min_size:64 ~max_size:512 () in
  let tenant_rows = Array.map (fun tn -> draw_rows rng tn.W.tenant_size) pop in
  let snap_specs =
    List.concat_map
      (fun ti ->
        List.init size.snaps_per (fun k ->
            let q = 0.1 +. Rng.float rng 0.8 in
            let slo_ticks = 2.0 *. Float.pow 10.0 (Rng.float rng 1.0) in
            ( { sname = Printf.sprintf "t%d_s%d" ti k; restrict = W.restrict_fraction q; projection = None },
              ti,
              slo_ticks *. dt_us )))
      (List.init size.tenants Fun.id)
  in
  (* One cycle of ticks' mutations, drawn before timing: per tenant, its
     bursty arrival count, then churn-mix ops with zipf-skewed slots. *)
  let ticks =
    Array.init size.cycle (fun _ ->
        Array.of_list
          (List.concat_map
             (fun tn ->
               let n = W.arrivals rng tn ~dt_s:(dt_us /. 1e6) in
               List.init n (fun _ ->
                   { tenant = tn.W.tenant_id; kind = draw_kind rng;
                     slot = Rng.zipf rng ~n:tn.W.tenant_size ~theta:tn.W.tenant_theta;
                     qual = Rng.int rng W.qual_domain; payload = Rng.int rng 1_000_000 }))
             (Array.to_list pop)))
  in
  digest_inputs (tenant_rows, ticks, List.map (fun (s, t, slo) -> (s.sname, t, slo)) snap_specs);
  let setup_calls = calls () in
  let w = setup_median 3 (build setup_calls tenant_rows snap_specs) in
  note "fleet_tenants: %d tenants, %d rows, %d snapshots, %.1f mutations per tick" size.tenants
    (Array.fold_left (fun a b -> a + Base_table.count b) 0 w.bases)
    (List.length w.specs)
    (float_of_int (Array.fold_left (fun a t -> a + Array.length t) 0 ticks) /. float_of_int size.cycle);
  let tick_i = ref 0 and now = ref 0.0 and next_id = ref 10_000_000 in
  let mutate p mu =
    churn_op p.c w.bases.(mu.tenant) w.lives.(mu.tenant) mu.kind ~slot:mu.slot ~qual:mu.qual
      ~payload:mu.payload ~insert:(fun () ->
        incr next_id;
        row ~id:!next_id ~qual:mu.qual ~payload:0);
    p.ops <- p.ops + 1
  in
  let measure b =
    let p =
      { c = calls (); s = sums (); tick = Samples.create (); ops = 0; tp = Throughput.create (); ticks = 0;
        dispatched = 0; grouped = 0; deferred = 0; misses = 0; committed = 0;
        r = relative () }
    in
    let pools = track_pools p.s (Array.to_list w.bases) in
    let st0 = Fleet.stats w.f in
    let deadline = budget_deadline b in
    while p.ticks < b.max_iters && now_us () < deadline do
      let t0 = now_us () and ops0 = p.ops in
      let muts = ticks.(!tick_i mod size.cycle) in
      incr tick_i;
      now := !now +. dt_us;
      op "client.mutate" (fun () -> Array.iter (mutate p) muts);
      let tr =
        op "client.tick" (fun () ->
            timed p.tick "fleet.tick" (fun () -> Fleet.tick w.f ~now_us:!now))
      in
      p.ticks <- p.ticks + 1;
      p.ops <- p.ops + 1;
      add_results p.s tr.Fleet.tr_results;
      p.s.requests <- p.s.requests + 1;
      p.dispatched <- p.dispatched + tr.tr_dispatched;
      p.grouped <- p.grouped + tr.tr_grouped;
      p.deferred <- p.deferred + tr.tr_deferred;
      p.misses <- p.misses + tr.tr_slo_misses;
      p.committed <- p.committed + List.length (List.filter (fun (_, r) -> Result.is_ok r) tr.tr_results);
      Throughput.add p.tp ~ops:(p.ops - ops0) ~busy_us:(now_us () -. t0);
      probe_after p.r (Samples.last p.tick)
    done;
    pools ();
    let st1 = Fleet.stats w.f in
    metric "fleet.method_full" "count" (float_of_int (st1.st_full - st0.st_full));
    metric "fleet.method_differential" "count" (float_of_int (st1.st_differential - st0.st_differential));
    metric "fleet.method_log_based" "count" (float_of_int (st1.st_log_based - st0.st_log_based));
    attempt p.ops;
    p
  in
  let rate p = Throughput.rate p.tp in
  let p = phases ~trace ~budget ~out measure rate in
  (* A quiescent tick past every deadline refreshes every member; then
     each image must equal its base restriction. *)
  attempt 1;
  now := !now +. (21.0 *. dt_us);
  let tr = Fleet.tick w.f ~now_us:!now in
  add_results (sums ()) tr.Fleet.tr_results;
  if tr.tr_dispatched <> List.length w.specs then
    fail "final tick dispatched %d of %d snapshots" tr.tr_dispatched (List.length w.specs);
  let oc = calls () in
  List.iter (fun (s, ti) -> check_snapshot oc w.m w.bases.(ti) s) w.specs;
  emit_calls
    { insert = Samples.concat [ setup_calls.insert; p.c.insert ]; update = p.c.update;
      delete = p.c.delete; pin = oc.pin; scan = oc.scan; get = oc.get };
  emit_refresh_layers p.s;
  let all = Samples.concat [ p.c.insert; p.c.update; p.c.delete ] in
  latency ~scale:1e-3 "refresh_ms" "ms" p.tick [ ("p80", 0.80) ];
  emit_relative p.r;
  latency ~scale:1e-3 "tick_ms" "ms" p.tick [ ("p95", 0.95) ];
  latency ~windowed:true ~scale:1.0 "update_us" "us" all [ ("p99", 0.99) ];
  note "refresh_ms: one refresh request is one Fleet.tick; update_us: every mutation call";
  metric "ops_per_s" "1/s" (Throughput.windowed p.tp);
  emit_link p.s;
  metric "peak_heap_mb" "MB" (peak_heap_mb ());
  metric "slo_miss_rate" "ratio" (iratio p.misses p.committed);
  metric "fleet.slo_misses" "count" (float_of_int p.misses);
  metric "fleet.refreshes" "count" (float_of_int p.committed);
  metric "fleet.decision_us.p99" "us" (hist_q "fleet.decision_us" 0.99);
  metric "fleet.dispatched_per_tick" "count" (iratio p.dispatched p.ticks);
  metric "fleet.grouped_share" "ratio" (iratio p.grouped p.dispatched);
  metric "fleet.deferred_per_tick" "count" (iratio p.deferred p.ticks)
