(* dense_churn: a 20k-row base whose pool holds the whole table (the data
   fits in the cache).  One q = 100% Differential snapshot retains four
   epochs (default version strategy) and is refreshed solo with
   [Manager.refresh], the monolithic path.  Closed loop, one client:
   churn-mix inserts/updates/deletes touching ~20% of rows, one refresh,
   then pinned reads of older retained epochs.  Thousands of messages per
   refresh go through encode, frame, link, stage, apply and version
   commit while the scan is cheap and cached; reads sit beside commits.
   Bypasses txn, wal and fleet. *)

open Harness
open Common

type size = { rows : int; cycle : int; frames : int }

let full = { rows = 20_000; cycle = 16; frames = 1024 }
let small = { rows = 2_000; cycle = 4; frames = 128 }

let retain = 4
let reads_per_refresh = 4
let gets_per_pin = 32
let spec = { sname = "d"; restrict = W.restrict_fraction 1.0; projection = None }

type inputs = {
  kinds : kind array;
  slots : int array;
  quals : int array;
  payloads : int array;
  inserts : Tuple.t array;  (** the new row, for [Ins] ops *)
  back : int array;  (** per read: how many epochs behind the latest *)
  probes : int array;  (** per point get: a slot draw *)
}

let draw rng ~ops ~reads =
  let kinds = Array.init ops (fun _ -> draw_kind rng) in
  let slots = Array.init ops (fun _ -> Rng.int rng max_int) in
  let quals = Array.init ops (fun _ -> Rng.int rng W.qual_domain) in
  let payloads = Array.init ops (fun _ -> Rng.int rng 1_000_000) in
  let inserts =
    Array.init ops (fun i ->
        if kinds.(i) = Ins then row ~id:(1_000_000 + Rng.int rng 1_000_000_000) ~qual:quals.(i) ~payload:0
        else [||])
  in
  let back = Array.init reads (fun _ -> 1 + Rng.int rng (retain - 1)) in
  let probes = Array.init (reads * gets_per_pin) (fun _ -> Rng.int rng max_int) in
  { kinds; slots; quals; payloads; inserts; back; probes }

let build c rows size () =
  let base = W.make_base ~frames:size.frames ~clock:(Clock.create ()) () in
  ignore (populate c base rows : Addr.t array);
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:spec.sname ~base:(Base_table.name base) ~restrict:spec.restrict
       ~method_:Manager.Differential ~version_retain:retain ()
      : Manager.refresh_report);
  ignore (Manager.refresh m spec.sname : Manager.refresh_report);
  (base, m, live_of base)

type phase = {
  c : calls;
  refresh : Samples.t;
  read : Samples.t;
  s : refresh_sums;
  mutable ops : int;
  tp : Throughput.t;
  r : relative;
}

let run ~size ~seed ~budget ~trace ~out =
  let rng = Rng.create seed in
  let rows = draw_rows rng size.rows in
  let per_iter = size.rows / 5 in
  let inp = draw rng ~ops:(size.cycle * per_iter) ~reads:(size.cycle * reads_per_refresh) in
  digest_inputs (rows, inp);
  let setup_calls = calls () in
  let base, m, live = setup_median 3 (build setup_calls rows size) in
  note "dense_churn: %d rows on %d data pages, pool %d frames, retain %d" (Base_table.count base)
    (Base_table.data_pages base) size.frames retain;
  let st = Manager.snapshot_table m spec.sname in
  (* Committed epochs (oldest first, the last [retain]) with the image
     hash each must show: the base restriction when it committed. *)
  let epochs = Queue.create () in
  let record_epoch () =
    Queue.push (Snapshot_table.last_committed_epoch st, image_hash (expected_image base spec)) epochs;
    if Queue.length epochs > retain then ignore (Queue.pop epochs)
  in
  record_epoch ();
  let op_i = ref 0 and read_i = ref 0 in
  let mutate p =
    let i = !op_i in
    op_i := (i + 1) mod Array.length inp.kinds;
    churn_op p.c base live inp.kinds.(i) ~slot:inp.slots.(i) ~qual:inp.quals.(i)
      ~payload:inp.payloads.(i) ~insert:(fun () ->
        let t = inp.inserts.(i) in
        if t = [||] then row ~id:(2_000_000 + i) ~qual:inp.quals.(i) ~payload:0 else t);
    p.ops <- p.ops + 1
  in
  let read p =
    let j = !read_i in
    read_i := (j + 1) mod Array.length inp.back;
    let avail = Array.of_seq (Queue.to_seq epochs) in
    let epoch, expect = avail.(max 0 (Array.length avail - 1 - inp.back.(j))) in
    let t0 = now_us () in
    op "client.read" (fun () ->
        match timed p.c.pin "snapshot_table.read_txn" (fun () -> Manager.read_txn ~epoch m spec.sname) with
        | None -> fail "epoch %d not readable" epoch
        | Some rt ->
          let h = ref 0 in
          timed p.c.scan "snapshot_table.txn_iter" (fun () ->
              Snapshot_table.txn_iter rt (fun a t -> h := hash_step !h a t));
          if !h <> expect then fail "epoch %d: pinned read differs from its committed image" epoch;
          let g0 = now_us () in
          span "snapshot_table.txn_get" (fun () ->
              for g = 0 to gets_per_pin - 1 do
                let r = inp.probes.((j * gets_per_pin) + g) in
                ignore (Snapshot_table.txn_get rt live.addrs.(r mod max 1 live.n) : Tuple.t option)
              done);
          Samples.add p.c.get ((now_us () -. g0) /. float_of_int gets_per_pin);
          span "snapshot_table.release_txn" (fun () -> Snapshot_table.release_txn rt));
    Samples.add p.read (now_us () -. t0);
    p.ops <- p.ops + 1
  in
  let measure b =
    let p =
      { c = calls (); refresh = Samples.create (); read = Samples.create (); s = sums (); ops = 0;
        tp = Throughput.create (); r = relative () }
    in
    let pools = track_pools p.s [ base ] in
    let deadline = budget_deadline b in
    let iters = ref 0 in
    while !iters < b.max_iters && now_us () < deadline do
      incr iters;
      let t0 = now_us () and ops0 = p.ops and n0 = Samples.count p.refresh in
      op "client.churn" (fun () ->
          for _ = 1 to per_iter do
            mutate p
          done);
      op "client.refresh" (fun () ->
          match timed p.refresh "manager.refresh" (fun () -> Manager.refresh m spec.sname) with
          | r -> add_report p.s r
          | exception e -> fail "refresh: %s" (Printexc.to_string e));
      p.s.requests <- p.s.requests + 1;
      p.ops <- p.ops + 1;
      let t1 = now_us () in
      (* The oracle's expected hash is the client's, not timed work. *)
      record_epoch ();
      let t2 = now_us () in
      for _ = 1 to reads_per_refresh do
        read p
      done;
      Throughput.add p.tp ~ops:(p.ops - ops0) ~busy_us:(t1 -. t0 +. (now_us () -. t2));
      if Samples.count p.refresh > n0 then probe_after p.r (Samples.last p.refresh)
    done;
    pools ();
    attempt p.ops;
    p
  in
  let rate p = Throughput.rate p.tp in
  let p = phases ~trace ~budget ~out measure rate in
  attempt 1;
  (match Manager.refresh m spec.sname with
   | _ -> ()
   | exception e -> fail "final refresh: %s" (Printexc.to_string e));
  let oc = calls () in
  check_snapshot oc m base spec;
  emit_calls
    { insert = Samples.concat [ setup_calls.insert; p.c.insert ]; update = p.c.update; delete = p.c.delete;
      pin = p.c.pin; scan = p.c.scan; get = p.c.get };
  emit_refresh_layers p.s;
  metric "mvcc.read_indirections_per_read" "count"
    (iratio (counter "mvcc.read_indirections") (Samples.count p.read));
  let mutations = Samples.count p.c.insert + Samples.count p.c.update + Samples.count p.c.delete in
  let all = Samples.concat [ p.c.insert; p.c.update; p.c.delete ] in
  note "update_us: all %d mutation calls (insert, update, delete)" mutations;
  latency ~scale:1e-3 "refresh_ms" "ms" p.refresh [ ("p80", 0.80) ];
  emit_relative p.r;
  latency ~windowed:true ~scale:1.0 "update_us" "us" all [ ("p99", 0.99) ];
  latency ~scale:1e-3 "read_ms" "ms" p.read [ ("p95", 0.95) ];
  metric "ops_per_s" "1/s" (Throughput.windowed p.tp);
  emit_link p.s;
  metric "peak_heap_mb" "MB" (peak_heap_mb ())
