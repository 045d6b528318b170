(* Observability tests: the metrics registry and the trace ring on their
   own, then the two guarantees the instrumentation must uphold — the
   refresh wire stream is byte-identical with tracing on or off, and every
   instrumented subsystem actually reports into the global registry. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace
module Expr = Snapdiff_expr.Expr
module Gen = QCheck2.Gen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ---------- Metrics ---------- *)

let test_metrics_counters_gauges () =
  let t = Metrics.create () in
  let c = Metrics.counter t "c" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter accumulates" 5 (Metrics.value c);
  checki "same name shares the metric" 5 (Metrics.value (Metrics.counter t "c"));
  let g = Metrics.gauge t "g" in
  Metrics.set g 2.0;
  Metrics.shift g (-3.0);
  checkb "gauge shifts below zero" true (Metrics.level g = -1.0);
  checki "counter_value by name" 5 (Metrics.counter_value t "c");
  checki "absent name reads zero" 0 (Metrics.counter_value t "nope");
  Alcotest.(check (list string)) "names sorted" [ "c"; "g" ] (Metrics.names t);
  (match Metrics.gauge t "c" with
  | exception Metrics.Kind_mismatch _ -> ()
  | _ -> Alcotest.fail "reusing a counter name as a gauge must raise");
  Metrics.reset t;
  checki "reset zeroes" 0 (Metrics.value c);
  Metrics.incr c;
  checki "old handles stay live across reset" 1 (Metrics.counter_value t "c")

(* Counters and gauges are atomic: reader domains (the MVCC bench's) and
   the refresh path bump the same global registry concurrently. *)
let test_metrics_counters_across_domains () =
  let r = Metrics.create () in
  let c = Metrics.counter r "par.counter" in
  let g = Metrics.gauge r "par.gauge" in
  let per = 25_000 in
  let workers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Metrics.incr c;
              Metrics.shift g 1.0
            done))
  in
  Array.iter Domain.join workers;
  checki "no lost counter increments" (4 * per) (Metrics.value c);
  checkb "no lost gauge shifts" true (Metrics.level g = float_of_int (4 * per))

let test_metrics_quantiles () =
  let t = Metrics.create () in
  let h = Metrics.histogram t "h" in
  List.iter (fun v -> Metrics.observe h (float_of_int v)) [ 1; 2; 3; 100; 1000 ];
  checki "n" 5 (Metrics.observations h);
  checkb "p0 is the min" true (Metrics.quantile h 0.0 = 1.0);
  checkb "p100 is the max" true (Metrics.quantile h 1.0 = 1000.0);
  let p50 = Metrics.quantile h 0.5 in
  (* The median sample is 3; log bucketing allows at most one octave. *)
  checkb "p50 within the median's octave" true (p50 >= 2.0 && p50 <= 4.0);
  checkb "quantiles clamp to observed range" true
    (Metrics.quantile h 0.99 <= 1000.0 && Metrics.quantile h 0.01 >= 1.0);
  Metrics.observe h (-5.0);
  checkb "negative samples clamp to zero" true (Metrics.hist_min h = 0.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.quantile: q out of range") (fun () ->
      ignore (Metrics.quantile h 1.5))

let test_metrics_dump_json () =
  let t = Metrics.create () in
  Metrics.incr (Metrics.counter t "hits");
  Metrics.set (Metrics.gauge t "depth") 2.5;
  Metrics.observe (Metrics.histogram t "lat\"us") 7.0;
  let j = Metrics.dump_json t in
  checkb "counters section" true (contains j "\"counters\": {\"hits\": 1}");
  checkb "gauges section" true (contains j "\"depth\": 2.5");
  checkb "histogram quote escaped" true (contains j "lat\\\"us");
  checkb "histogram stats present" true (contains j "\"n\": 1" && contains j "\"p99\":")

(* ---------- Trace ---------- *)

let test_trace_ring () =
  Trace.enable ~capacity:4 Trace.Memory;
  for i = 1 to 6 do
    Trace.event (Printf.sprintf "e%d" i)
  done;
  checki "ring holds capacity" 4 (Trace.record_count ());
  checki "overflow counted" 2 (Trace.dropped ());
  Alcotest.(check (list string)) "oldest records overwritten first"
    [ "e3"; "e4"; "e5"; "e6" ]
    (List.map (fun r -> r.Trace.name) (Trace.recent ()));
  Trace.disable ();
  checkb "ring survives disable" true (Trace.record_count () = 4)

let test_trace_spans () =
  Trace.enable Trace.Memory;
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> ());
        41 + 1)
  in
  checki "span returns the thunk's value" 42 r;
  (match List.map (fun x -> x.Trace.name) (Trace.recent ()) with
  | [ "inner"; "outer" ] -> ()
  | names -> Alcotest.failf "child must precede parent, got [%s]" (String.concat "; " names));
  (match Trace.recent () with
  | [ inner; outer ] ->
    checkb "spans have kind Span" true (inner.Trace.kind = Trace.Span);
    checkb "parent spans the child" true (outer.Trace.dur_us >= inner.Trace.dur_us)
  | _ -> Alcotest.fail "two records expected");
  (* An exception inside a span is recorded, tagged, and re-raised. *)
  (match Trace.with_span "boom" (fun () -> failwith "kaput") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  (match List.rev (Trace.recent ()) with
  | last :: _ ->
    checkb "error attr recorded" true (List.mem_assoc "error" last.Trace.attrs)
  | [] -> Alcotest.fail "span expected");
  Trace.disable ()

let test_trace_disabled_is_passthrough () =
  Trace.disable ();
  let hit = ref false in
  let v = Trace.with_span "off" (fun () -> hit := true; 7) in
  Trace.event "off-event";
  checkb "thunk ran" true !hit;
  checki "value passed through" 7 v

(* ---------- Byte-identical refresh stream, tracing on vs off ---------- *)

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

type op = Ins of int | Upd of int * int | Del of int | Refresh

let op_gen =
  Gen.frequency
    [ (4, Gen.map (fun s -> Ins s) (Gen.int_range 0 20));
      (2, Gen.map2 (fun i s -> Upd (i, s)) (Gen.int_range 0 30) (Gen.int_range 0 20));
      (2, Gen.map (fun i -> Del i) (Gen.int_range 0 30));
      (2, Gen.pure Refresh) ]

let print_op = function
  | Ins s -> Printf.sprintf "I%d" s
  | Upd (i, s) -> Printf.sprintf "U%d:%d" i s
  | Del i -> Printf.sprintf "D%d" i
  | Refresh -> "R"

let pick_live base i =
  match Base_table.to_user_list base with
  | [] -> None
  | live -> Some (fst (List.nth live (i mod List.length live)))

(* Run one deterministic scenario and return (wire bytes, final snapshot
   contents).  The snapshot's link receiver is re-attached to capture every
   frame on its way into [apply_bytes]. *)
let run_scenario (script, threshold) =
  let clock = Clock.create () in
  let base = Base_table.create ~page_size:256 ~name:"emp" ~clock emp_schema in
  let m = Manager.create ~batch_size:4 () in
  Manager.register_base m base;
  for i = 0 to 5 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  let link = Snapdiff_net.Link.create ~name:"wire" () in
  let restrict = Expr.(col "salary" <. int threshold) in
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict
       ~method_:Manager.Differential ~link ()
      : Manager.refresh_report);
  let wire = Buffer.create 256 in
  let st = Manager.snapshot_table m "s" in
  Snapdiff_net.Link.attach link (fun b len ->
      Buffer.add_subbytes wire b 0 len;
      Snapshot_table.apply_bytes st b len);
  let n = ref 0 in
  List.iter
    (fun op ->
      incr n;
      match op with
      | Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
      | Upd (i, s) -> (
        match pick_live base i with
        | Some a -> Base_table.update base a (emp (Printf.sprintf "u%d" !n) s)
        | None -> ())
      | Del i -> (
        match pick_live base i with Some a -> Base_table.delete base a | None -> ())
      | Refresh -> ignore (Manager.refresh m "s" : Manager.refresh_report))
    script;
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  (Buffer.contents wire, Snapshot_table.contents st)

let prop_stream_identical_traced =
  QCheck2.Test.make ~name:"refresh stream byte-identical with tracing on/off" ~count:60
    ~print:(fun (ops, th) ->
      Printf.sprintf "th=%d [%s]" th (String.concat " " (List.map print_op ops)))
    (Gen.pair (Gen.list_size (Gen.int_range 0 30) op_gen) (Gen.int_range 0 20))
    (fun scenario ->
      Trace.disable ();
      let bytes_off, contents_off = run_scenario scenario in
      Trace.enable Trace.Memory;
      let bytes_on, contents_on =
        Fun.protect ~finally:Trace.disable (fun () -> run_scenario scenario)
      in
      if bytes_off <> bytes_on then
        QCheck2.Test.fail_report
          (Printf.sprintf "wire diverged: %d bytes untraced, %d traced"
             (String.length bytes_off) (String.length bytes_on));
      contents_off = contents_on)

(* ---------- Coverage: every subsystem reports into the registry ---------- *)

let counter_delta name f =
  let before = Metrics.counter_value Metrics.global name in
  f ();
  Metrics.counter_value Metrics.global name - before

let test_subsystem_coverage () =
  (* WAL. *)
  let d =
    counter_delta "wal.appends" (fun () ->
        let log = Snapdiff_wal.Wal.create () in
        ignore (Snapdiff_wal.Wal.append log (Snapdiff_wal.Record.Begin { txn = 1 })
                 : Snapdiff_wal.Wal.lsn))
  in
  checkb "wal.appends counted" true (d > 0);
  (* Locks. *)
  let d =
    counter_delta "lock.acquires" (fun () ->
        let lm = Snapdiff_txn.Lock.create () in
        ignore (Snapdiff_txn.Lock.acquire lm 1 (Snapdiff_txn.Lock.Table "t") Snapdiff_txn.Lock.S))
  in
  checkb "lock.acquires counted" true (d > 0);
  (* Link. *)
  let d =
    counter_delta "link.frames" (fun () ->
        let l = Snapdiff_net.Link.create ~name:"obs-test" () in
        Snapdiff_net.Link.attach l (fun _ _ -> ());
        Snapdiff_net.Link.send l (Bytes.of_string "x"))
  in
  checkb "link.frames counted" true (d > 0);
  (* Buffer pool, via a pool-backed base table. *)
  let hits =
    counter_delta "bufferpool.hits" (fun () ->
        let store = Page_store.in_memory ~page_size:256 () in
        let pool = Buffer_pool.create ~frames:2 ~policy:Buffer_pool.Lru store in
        let clock = Clock.create () in
        let base = Base_table.on_pool ~name:"emp" ~clock pool emp_schema in
        for i = 0 to 9 do
          ignore (Base_table.insert base (emp (Printf.sprintf "p%d" i) i) : Addr.t)
        done)
  in
  checkb "bufferpool.hits counted" true (hits > 0);
  (* Base table mutations + refresh, end to end through the Manager. *)
  let ins = ref 0 and refr = ref 0 and dec = ref 0 in
  let d =
    counter_delta "snapshot.stream_commits" (fun () ->
        ins :=
          counter_delta "basetable.inserts" (fun () ->
              refr :=
                counter_delta "refresh.refreshes" (fun () ->
                    dec :=
                      counter_delta "refresh.entries_decoded" (fun () ->
                          let clock = Clock.create () in
                          let base =
                            Base_table.create ~page_size:256 ~name:"emp" ~clock emp_schema
                          in
                          let m = Manager.create () in
                          Manager.register_base m base;
                          ignore
                            (Manager.create_snapshot m ~name:"cov" ~base:"emp"
                               ~restrict:Expr.(col "salary" <. int 50)
                               ~method_:Manager.Differential ()
                              : Manager.refresh_report);
                          for i = 0 to 4 do
                            ignore
                              (Base_table.insert base (emp (Printf.sprintf "c%d" i) i)
                                : Addr.t)
                          done;
                          ignore (Manager.refresh m "cov" : Manager.refresh_report)))))
  in
  checkb "basetable.inserts counted" true (!ins > 0);
  checkb "refresh.refreshes counted" true (!refr > 0);
  checkb "refresh.entries_decoded counted" true (!dec > 0);
  checkb "snapshot.stream_commits counted" true (d > 0)

(* A bucket holding exactly one sample reports that sample, not an
   interpolated point of its octave: {3, 100} has p50 = 3 and p99 = 100
   exactly, and every quantile of a one-observation histogram is that
   observation.  (Interpolation used to report p50 = 2.5 here — the
   midpoint of [2,4) — despite knowing the only sample in the bucket.) *)
let test_histogram_single_sample_bucket () =
  let t = Metrics.create () in
  let h = Metrics.histogram t "single" in
  Metrics.observe h 3.0;
  Metrics.observe h 100.0;
  checkb "p50 exact for a single-sample bucket" true (Metrics.quantile h 0.5 = 3.0);
  checkb "p99 exact for a single-sample bucket" true (Metrics.quantile h 0.99 = 100.0);
  let h1 = Metrics.histogram t "one" in
  Metrics.observe h1 7.0;
  List.iter
    (fun q ->
      checkb
        (Printf.sprintf "q=%.2f of one observation is that observation" q)
        true
        (Metrics.quantile h1 q = 7.0))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ]

(* The receiver half of the refresh ledger: a committed refresh reports
   how long the snapshot site spent decoding, freezing, replaying and
   publishing its stream.  The phases are disjoint slices of the refresh,
   so each is non-negative and together they fit inside its wall time. *)
let test_receiver_ledger () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 299 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 12)
       ~method_:Manager.Differential ~version_retain:3 ()
      : Manager.refresh_report);
  let st = Manager.snapshot_table m "s" in
  for round = 1 to 3 do
    List.iteri
      (fun i (a, _) -> if i mod 3 = round mod 3 then Base_table.update base a (emp "u" (i mod 20)))
      (Base_table.to_user_list base);
    let t0 = Trace.now_us () in
    let r = Manager.refresh m "s" in
    let wall = Trace.now_us () -. t0 in
    let p = r.Manager.receiver in
    let phases =
      [ ("decode", p.decode_us); ("freeze", p.freeze_us); ("replay", p.replay_us);
        ("publish", p.publish_us) ]
    in
    List.iter (fun (name, us) -> checkb (name ^ " phase is non-negative") true (us >= 0.0)) phases;
    let sum = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phases in
    checkb
      (Printf.sprintf "round %d: phases (%.0f us) fit in the refresh (%.0f us)" round sum wall)
      true (sum <= wall);
    checkb "the replay of ~60 upserts was timed" true (p.replay_us > 0.0);
    checkb "the report carries the snapshot's last commit" true
      (p = Snapshot_table.last_commit_phases st)
  done

(* The sender half of the ledger: the locked scan's own time, the time
   spent encoding frames, the stream's remaining transmit time net of the
   receiver's decode and commit (which run inside it), and the bytes the
   fix-up wrote — 18 per in-place tail patch.
   Every field is non-negative and sender plus receiver fit inside the
   refresh's wall time; the residual is what is left of the attempt's
   [wall_us], so phases plus residual are exactly [wall_us]. *)
(* The scan's six sub-phases are non-negative and sum to [scan_us] (the
   remainder phase is clamped at 0, so up to clock rounding); a scan that
   read pages spent time in them. *)
let check_scan_split where r =
  let s = r.Manager.sender in
  let parts =
    [ ("lock_us", s.Manager.lock_us); ("load_us", s.Manager.load_us);
      ("fixup_us", s.Manager.fixup_us); ("filter_us", s.Manager.filter_us);
      ("emit_us", s.Manager.emit_us); ("scan_other_us", s.Manager.scan_other_us) ]
  in
  List.iter
    (fun (name, us) -> checkb (Printf.sprintf "%s: %s >= 0" where name) true (us >= 0.0))
    parts;
  let sum = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 parts in
  checkb
    (Printf.sprintf "%s: sub-phases (%.1f us) sum to scan_us (%.1f us)" where sum s.Manager.scan_us)
    true
    (Float.abs (sum -. s.Manager.scan_us) <= 1.0);
  checkb (where ^ ": the page phases were timed") true
    (s.Manager.load_us +. s.Manager.fixup_us +. s.Manager.filter_us +. s.Manager.emit_us > 0.0)

(* The allocation ledger: a refresh that sends rows reports the minor
   words its attempt allocated, one figure for every member of a group,
   and a report built outside a refresh attempt reports none. *)
let test_alloc_ledger () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 199 do
    ignore (Base_table.insert base (emp (Printf.sprintf "a%d" i) (i mod 20)) : Addr.t)
  done;
  List.iter
    (fun (name, restrict) ->
      ignore
        (Manager.create_snapshot m ~name ~base:"emp" ~restrict ~method_:Manager.Differential ()
          : Manager.refresh_report))
    [ ("lo", Expr.(col "salary" <. int 12)); ("hi", Expr.(col "salary" >=. int 8)) ];
  List.iteri
    (fun i (a, _) -> if i mod 2 = 0 then Base_table.update base a (emp "b" (i mod 20)))
    (Base_table.to_user_list base);
  let rs = List.map (fun (_, res) -> Result.get_ok res) (Manager.refresh_all m) in
  let r0 = List.hd rs in
  checkb "the refresh sent rows" true (List.for_all (fun r -> r.Manager.data_messages > 0) rs);
  checkb (Printf.sprintf "alloc_words %d > 0" r0.Manager.alloc_words) true
    (r0.Manager.alloc_words > 0);
  checkb "one figure for the group" true
    (List.for_all (fun r -> r.Manager.alloc_words = r0.Manager.alloc_words) rs);
  let link = Snapdiff_net.Link.create ~name:"l" () in
  let r =
    Manager.make_report ~snapshot:"x" Manager.Used_full ~new_snaptime:0 ~entries_scanned:0
      ~data_messages:0 ~link ~since:(Snapdiff_net.Link.stats link)
  in
  checki "make_report: no attempt, no words" 0 r.Manager.alloc_words

let test_sender_ledger () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 299 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 12)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  for round = 1 to 3 do
    List.iteri
      (fun i (a, _) -> if i mod 3 = round mod 3 then Base_table.update base a (emp "u" (i mod 20)))
      (Base_table.to_user_list base);
    let t0 = Trace.now_us () in
    let r = Manager.refresh m "s" in
    let wall = Trace.now_us () -. t0 in
    let s = r.Manager.sender and p = r.Manager.receiver in
    checkb "scan_us is non-negative" true (s.Manager.scan_us >= 0.0);
    checkb "encode_us is non-negative" true (s.Manager.encode_us >= 0.0);
    checkb "send_us is non-negative" true (s.Manager.send_us >= 0.0);
    List.iter
      (fun (name, us) -> checkb (name ^ " is non-negative") true (us >= 0.0))
      [ ("decode_us", p.decode_us); ("freeze_us", p.freeze_us); ("replay_us", p.replay_us);
        ("publish_us", p.publish_us) ];
    check_scan_split (Printf.sprintf "solo round %d" round) r;
    checkb "fixup_bytes is non-negative" true (s.Manager.fixup_bytes >= 0);
    checkb "the ~100 restamped rows were written" true (r.Manager.fixup_writes >= 100);
    checkb "each fix-up write is an 18-byte patch" true
      (s.Manager.fixup_bytes = 18 * r.Manager.fixup_writes);
    let sum =
      s.Manager.scan_us +. s.Manager.encode_us +. s.Manager.send_us +. p.decode_us
      +. p.freeze_us +. p.replay_us +. p.publish_us
    in
    checkb
      (Printf.sprintf "round %d: sender + receiver (%.0f us) fit in the refresh (%.0f us)" round
         sum wall)
      true (sum <= wall);
    (* The residual closes the ledger: what no phase explains, never
       negative beyond clock rounding, and with the phases it is exactly
       the attempt's wall time. *)
    checkb
      (Printf.sprintf "round %d: residual %.1f us >= 0" round r.Manager.residual_us)
      true
      (r.Manager.residual_us >= -1.0);
    checkb
      (Printf.sprintf "round %d: phases + residual (%.1f) = wall_us (%.1f)" round
         (sum +. r.Manager.residual_us) r.Manager.wall_us)
      true
      (Float.abs (sum +. r.Manager.residual_us -. r.Manager.wall_us) < 1e-6);
    checkb "wall_us fits in the refresh" true (r.Manager.wall_us <= wall)
  done;
  (* A group scan: one wall and one residual for every member, and the
     shared scan plus every member's phases plus the residual is the wall. *)
  ignore
    (Manager.create_snapshot m ~name:"t" ~base:"emp"
       ~restrict:Expr.(col "salary" >=. int 8)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  List.iteri
    (fun i (a, _) -> if i mod 2 = 0 then Base_table.update base a (emp "g" (i mod 20)))
    (Base_table.to_user_list base);
  let rs =
    List.map
      (fun (_, res) -> match res with Ok r -> r | Error e -> raise e)
      (Manager.refresh_all m)
  in
  checki "one group of two" 2 (List.hd rs).Manager.group_size;
  let r0 = List.hd rs in
  List.iter (check_scan_split "group") rs;
  checkb "one split for the group" true
    (List.for_all
       (fun r ->
         let s = r.Manager.sender in
         s = { r0.Manager.sender with
               encode_us = s.Manager.encode_us;
               send_us = s.Manager.send_us;
               fixup_bytes = s.Manager.fixup_bytes })
       rs);
  List.iter
    (fun r ->
      checkb "same wall on every member" true (r.Manager.wall_us = r0.Manager.wall_us);
      checkb "same residual on every member" true
        (r.Manager.residual_us = r0.Manager.residual_us))
    rs;
  let spent =
    List.fold_left
      (fun acc r ->
        let s = r.Manager.sender and p = r.Manager.receiver in
        acc +. s.Manager.encode_us +. s.Manager.send_us +. p.decode_us +. p.freeze_us
        +. p.replay_us +. p.publish_us)
      r0.Manager.sender.scan_us rs
  in
  checkb "group residual >= 0" true (r0.Manager.residual_us >= -1.0);
  checkb
    (Printf.sprintf "group: scan + members' phases + residual (%.1f) = wall_us (%.1f)"
       (spent +. r0.Manager.residual_us) r0.Manager.wall_us)
    true
    (Float.abs (spent +. r0.Manager.residual_us -. r0.Manager.wall_us) < 1e-6);
  (* A chunked refresh: page locks per chunk and a catch-up under the
     table lock, split the same way. *)
  let wal = Snapdiff_wal.Wal.create () in
  let cbase = Base_table.create ~page_size:256 ~wal ~name:"cemp" ~clock emp_schema in
  let cm = Manager.create ~chunk_entries:16 () in
  Manager.register_base cm cbase;
  for i = 0 to 199 do
    ignore (Base_table.insert cbase (emp (Printf.sprintf "c%d" i) (i mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot cm ~name:"c" ~base:"cemp"
       ~restrict:Expr.(col "salary" <. int 12)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  List.iteri
    (fun i (a, _) -> if i mod 4 = 0 then Base_table.update cbase a (emp "cu" (i mod 20)))
    (Base_table.to_user_list cbase);
  let rc = Manager.refresh cm "c" in
  checkb "the refresh ran chunked" true (rc.Manager.chunks > 1);
  check_scan_split "chunked" rc

(* The ledger's own cost: a stream's transmit time is read once per
   burst (a page's messages), not per message.  Two refreshes over the
   same pages at the same batch size, one sending about ten times the
   messages of the other, must differ in clock reads by at most a small
   constant per extra frame (the writer times each frame's send, the
   receiver each frame's decode and replay). *)
let test_clock_reads_per_burst () =
  let clock = Clock.create () in
  let base = Base_table.create ~page_size:512 ~name:"emp" ~clock emp_schema in
  let m = Manager.create ~batch_size:8 () in
  Manager.register_base m base;
  for i = 0 to 299 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~restrict:Expr.(col "salary" <. int 100)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let pages = Base_table.data_pages base in
  let refresh ~per_page =
    List.iter
      (fun (a, _) -> if Addr.slot a < per_page then Base_table.update base a (emp "u" 1))
      (Base_table.to_user_list base);
    let reads0 = Trace.clock_reads () in
    let r = Manager.refresh m "s" in
    (r, Trace.clock_reads () - reads0)
  in
  let few, few_reads = refresh ~per_page:1 in
  let many, many_reads = refresh ~per_page:max_int in
  checki "the same pages" pages few.Manager.pages_decoded;
  checki "the same pages, both times" pages many.Manager.pages_decoded;
  checkb
    (Printf.sprintf "about tenfold messages (%d vs %d)" many.Manager.data_messages
       few.Manager.data_messages)
    true
    (many.Manager.data_messages >= 8 * few.Manager.data_messages);
  let extra_frames = many.Manager.link_messages - few.Manager.link_messages in
  checkb
    (Printf.sprintf "%d more clock reads for %d more messages in %d more frames"
       (many_reads - few_reads)
       (many.Manager.data_messages - few.Manager.data_messages)
       extra_frames)
    true
    (many_reads - few_reads <= 8 * extra_frames + 8)

let suite =
  [
    Alcotest.test_case "metrics counters/gauges" `Quick test_metrics_counters_gauges;
    Alcotest.test_case "metrics counters across domains" `Quick
      test_metrics_counters_across_domains;
    Alcotest.test_case "metrics quantiles" `Quick test_metrics_quantiles;
    Alcotest.test_case "histogram single-sample buckets exact" `Quick
      test_histogram_single_sample_bucket;
    Alcotest.test_case "metrics dump_json" `Quick test_metrics_dump_json;
    Alcotest.test_case "trace ring" `Quick test_trace_ring;
    Alcotest.test_case "trace spans" `Quick test_trace_spans;
    Alcotest.test_case "trace disabled passthrough" `Quick test_trace_disabled_is_passthrough;
    Alcotest.test_case "subsystem coverage" `Quick test_subsystem_coverage;
    Alcotest.test_case "receiver ledger phases fit the refresh" `Quick test_receiver_ledger;
    Alcotest.test_case "sender ledger fits the refresh" `Quick test_sender_ledger;
    Alcotest.test_case "clock reads: one per burst, not per message" `Quick
      test_clock_reads_per_burst;
    Alcotest.test_case "allocation ledger: words per refresh attempt" `Quick test_alloc_ledger;
    QCheck_alcotest.to_alcotest prop_stream_identical_traced;
  ]
