(* Failure injection: a refresh stream that is cut, thinned, or garbled
   mid-flight must never leave the snapshot between images.

   The paper's protocol gives the *sender* the right properties — the new
   SnapTime is transmitted LAST, so an interrupted snapshot keeps its old
   SnapTime and the retry re-covers the whole window, and the messages are
   idempotent — but eager application on the receiver still exposes a
   partially-applied stream: neither the old image nor the new one.  The
   epoch-framed transport applies each stream inside an open epoch that
   only its Snaptime commit marker publishes, and the manager retries aborted streams
   with backoff (escalating to full refresh when differential keeps
   dying).  These tests drive all of that through the fault-injecting
   links. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Expr = Snapdiff_expr.Expr
module Link = Snapdiff_net.Link
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

(* ------------------------------------------------------------------ *)
(* Shared scaffolding: a populated base, a snapshot built over a healthy
   link, then a batch of mutations for the next refresh to cover. *)

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

(* [batch_size] defaults to 1 here, not to the manager's default: link
   faults are decided once per frame, so one message per frame lets a
   fault plan land at every message position of the stream.  The
   properties below also run at {!Refresh_msg.default_batch_size}. *)
let setup ~method_ ?retry ?(batch_size = 1) (script, threshold) =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create ?retry ~batch_size () in
  Manager.register_base m base;
  for i = 0 to 9 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int threshold)
       ~method_ ()
      : Manager.refresh_report);
  apply_script base script;
  (m, base)

let faithful m base threshold =
  let snap = Manager.snapshot_table m "s" in
  Snapshot_table.contents snap = expected_restricted base threshold
  && Snapshot_table.validate snap = Ok ()

let script_gen : fop list Gen.t =
  Gen.list_size (Gen.int_range 5 40)
    (Gen.oneof
       [
         Gen.map (fun s -> (`Ins s : fop)) (Gen.int_range 0 19);
         Gen.map2 (fun i s -> (`Upd (i, s) : fop)) (Gen.int_range 0 1000) (Gen.int_range 0 19);
         Gen.map (fun i -> (`Del i : fop)) (Gen.int_range 0 1000);
       ])

let threshold_gen = Gen.int_range 1 20
let seed_gen = Gen.int_range 0 100_000

(* ------------------------------------------------------------------ *)
(* The bug itself, at the receiver: a truncated stream applied eagerly
   (the pre-framing behaviour) produces a state that is neither the old
   image nor the new one; the same truncated stream framed leaves the old
   image untouched, and the retried epoch commits the new one. *)

let a1 = Addr.make ~page:1 ~slot:0
let a2 = Addr.make ~page:1 ~slot:1
let a3 = Addr.make ~page:1 ~slot:2

(* What a link does with a frame of [msgs]: lend its bytes to the
   receiver. *)
let deliver snap b = Snapshot_table.apply_bytes snap b (Bytes.length b)
let send_frame snap ~epoch ~seq msgs = deliver snap (Refresh_msg.encode_framed ~epoch ~seq msgs)

let mk_snap () =
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  Snapshot_table.apply snap (Refresh_msg.Upsert { addr = a1; row = Row.of_tuple (emp "a" 1) });
  Snapshot_table.apply snap (Refresh_msg.Upsert { addr = a2; row = Row.of_tuple (emp "b" 2) });
  Snapshot_table.apply snap (Refresh_msg.Snaptime 10);
  snap

let stream =
  [ Refresh_msg.Remove { addr = a1 };
    Refresh_msg.Upsert { addr = a3; row = Row.of_tuple (emp "c" 3) };
    Refresh_msg.Snaptime 20 ]

let test_partial_stream_neither_image () =
  let old_image = Snapshot_table.contents (mk_snap ()) in
  let new_image =
    let snap = mk_snap () in
    List.iter (Snapshot_table.apply snap) stream;
    Snapshot_table.contents snap
  in
  (* Legacy eager application of the truncated prefix: the deletion landed
     but the insertion never arrived — a state no consistent base ever
     had. *)
  let legacy = mk_snap () in
  Snapshot_table.apply legacy (List.hd stream);
  let got = Snapshot_table.contents legacy in
  checkb "legacy partial apply is neither old nor new image" true
    (got <> old_image && got <> new_image);
  (* Framed, the same truncated prefix applies inside its open epoch:
     every read still sees the old image. *)
  let framed = mk_snap () in
  send_frame framed ~epoch:1 ~seq:0 [ List.hd stream ];
  checkb "framed partial stream leaves the old image" true
    (Snapshot_table.contents framed = old_image);
  checkb "epoch 1 open" true (Snapshot_table.open_epoch framed = Some 1);
  (* The retry arrives as a fresh epoch: it supersedes (aborts) the
     truncated stream and commits atomically at its marker. *)
  List.iteri (fun i msg -> send_frame framed ~epoch:2 ~seq:i [ msg ]) stream;
  checkb "retried epoch commits the new image" true
    (Snapshot_table.contents framed = new_image);
  checki "one abort" 1 (Snapshot_table.epochs_aborted framed);
  checki "one commit" 1 (Snapshot_table.epochs_committed framed);
  checki "epoch 2 committed" 2 (Snapshot_table.last_committed_epoch framed);
  checkb "abort reason recorded" true (Snapshot_table.last_abort framed <> None)

let test_gap_and_corruption_detected () =
  (* A silently lost frame (sequence gap) aborts the epoch. *)
  let snap = mk_snap () in
  let old_image = Snapshot_table.contents snap in
  send_frame snap ~epoch:1 ~seq:0 [ List.nth stream 0 ];
  (* seq 1 lost in flight *)
  send_frame snap ~epoch:1 ~seq:2 [ List.nth stream 2 ];
  checkb "gapped stream aborted at its marker" true
    (Snapshot_table.contents snap = old_image
    && Snapshot_table.epochs_aborted snap = 1
    && Snapshot_table.epochs_committed snap = 0);
  (* A garbled frame (any byte) fails the checksum and aborts the
     epoch; its later frames are dropped. *)
  let snap = mk_snap () in
  let garbled = Refresh_msg.encode_framed ~epoch:1 ~seq:0 [ List.nth stream 0 ] in
  let i = Bytes.length garbled - 1 in
  Bytes.set garbled i (Char.chr (Char.code (Bytes.get garbled i) lxor 0x40));
  deliver snap garbled;
  List.iteri (fun i msg -> if i > 0 then send_frame snap ~epoch:1 ~seq:i [ msg ]) stream;
  checkb "corrupted stream aborted, old image kept" true
    (Snapshot_table.contents snap = old_image
    && Snapshot_table.epochs_aborted snap = 1
    && Snapshot_table.epochs_committed snap = 0)

(* A checksum-valid frame whose row the snapshot cannot hold — wrong
   arity, wrong column type, even behind a good message of the same
   frame — is checked before its replay: the epoch aborts whole instead
   of raising half way through a message, and the next clean epoch
   commits. *)
let test_malformed_frame_aborts () =
  let bad_rows =
    [ ("arity", [ Refresh_msg.Upsert { addr = a3;
        row = Row.of_tuple (Tuple.make [ Value.str "short" ]) } ]);
      ("type", [ Refresh_msg.Upsert { addr = a3;
          row = Row.of_tuple (Tuple.make [ Value.int 1; Value.int 2 ]) } ]);
      ( "arity after a good message",
        [ Refresh_msg.Upsert { addr = a3; row = Row.of_tuple (emp "c" 3) };
          Refresh_msg.Entry
            { addr = a3 + 1; prev_qual = a3;
                row = Row.of_tuple (Tuple.make [ Value.str "x"; Value.int 1; Value.int 2 ]) }
        ] ) ]
  in
  List.iteri
    (fun k (what, bad) ->
      let snap = mk_snap () in
      let old_image = Snapshot_table.contents snap in
      let frames = [ [ Refresh_msg.Remove { addr = a1 } ]; bad; [ Refresh_msg.Snaptime 20 ] ] in
      (match List.iteri (fun i msgs -> send_frame snap ~epoch:(k + 1) ~seq:i msgs) frames with
      | () -> ()
      | exception e -> Alcotest.failf "%s: malformed frame raised %s" what (Printexc.to_string e));
      checkb (what ^ ": stream aborted, old image kept") true
        (Snapshot_table.contents snap = old_image
        && Snapshot_table.epochs_aborted snap = 1
        && Snapshot_table.epochs_committed snap = 0
        && Snapshot_table.validate snap = Ok ());
      checkb (what ^ ": abort names the malformed frame") true
        (match Snapshot_table.last_abort snap with
        | Some r -> String.length r >= 15 && String.sub r 0 15 = "malformed frame"
        | None -> false);
      List.iteri (fun i msg -> send_frame snap ~epoch:(k + 10) ~seq:i [ msg ]) stream;
      checki (what ^ ": the next clean epoch commits") (k + 10)
        (Snapshot_table.last_committed_epoch snap))
    bad_rows

(* The same row sent raw over a link, outside any epoch: the receiver
   refuses it with a recorded abort and raises nothing into the sender. *)
let test_malformed_raw_over_link () =
  let snap = mk_snap () in
  let old_image = Snapshot_table.contents snap in
  let link = Link.create ~name:"raw" () in
  Link.attach link (Snapshot_table.apply_bytes snap);
  let bad =
    Refresh_msg.Upsert { addr = a3; row = Row.of_tuple (Tuple.make [ Value.str "short" ]) }
  in
  (match Link.send link (Refresh_msg.encode bad) with
  | () -> ()
  | exception e -> Alcotest.failf "a malformed raw message raised %s" (Printexc.to_string e));
  checkb "the try_send path raises nothing either" true
    (Link.try_send link (Refresh_msg.encode bad));
  checkb "abort recorded" true
    (match Snapshot_table.last_abort snap with
    | Some r -> String.length r >= 17 && String.sub r 0 17 = "malformed message"
    | None -> false);
  checkb "image unchanged" true (Snapshot_table.contents snap = old_image);
  checkb "valid" true (Snapshot_table.validate snap = Ok ())

(* A snapshot row that grows far past its old size must not fail the
   replay.  When the snapshot lived in a heap, [Heap.update] once raised
   mid-commit on such a row: the half-applied epoch was published (the
   ring named an epoch the snapshot never committed) and every later
   refresh raised again.  The page table holds decoded rows, so a grown
   row is just another put. *)
let test_grown_row_relocates () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let addrs =
    Array.init 400 (fun i ->
        Base_table.insert base (emp (Printf.sprintf "%040d" i) (if i mod 2 = 0 then 1 else 100)))
  in
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 50)
       ~method_:Manager.Differential ~version_retain:2 ()
      : Manager.refresh_report);
  let first_page = Addr.page addrs.(0) in
  Array.iteri
    (fun i a -> if i mod 2 = 1 && Addr.page a = first_page then Base_table.delete base a)
    addrs;
  Base_table.update base addrs.(2) (emp "changed" 1);
  Base_table.update base addrs.(40) (emp (String.make 1200 'x') 1);
  let snap = Manager.snapshot_table m "s" in
  let check_consistent what =
    checkb (what ^ ": image is the base restriction") true (faithful m base 50);
    match Manager.snapshot_versions m "s" with
    | head :: _ ->
      checki (what ^ ": ring head is the committed epoch")
        (Snapshot_table.last_committed_epoch snap) head.Snapdiff_mvcc.Version_store.vi_epoch
    | [] -> Alcotest.fail "empty ring"
  in
  (match Manager.refresh m "s" with
  | _ -> ()
  | exception e -> Alcotest.failf "refresh with a grown row raised %s" (Printexc.to_string e));
  check_consistent "grown row";
  Base_table.update base addrs.(4) (emp "later" 1);
  (match Manager.refresh m "s" with
  | _ -> ()
  | exception e -> Alcotest.failf "the next refresh raised %s" (Printexc.to_string e));
  check_consistent "next refresh"

(* ------------------------------------------------------------------ *)
(* Manager-level determinism: outage mid-stream with no retry budget
   keeps the old image; with budget the refresh converges. *)

let burst = [ `Upd (0, 1); `Upd (1, 2); `Del 2; `Ins 5 ]

let test_outage_keeps_old_image_then_recovers () =
  let m, base =
    setup ~method_:Manager.Differential
      ~retry:{ Manager.default_retry_policy with max_attempts = 1 }
      (burst, 20)
  in
  let snap = Manager.snapshot_table m "s" in
  let pre = Snapshot_table.contents snap in
  let link = Manager.snapshot_link m "s" in
  Link.inject_faults link ~fail_after:1 ~seed:42 ();
  (match Manager.refresh m "s" with
  | (_ : Manager.refresh_report) -> Alcotest.fail "expected Refresh_failed"
  | exception Manager.Refresh_failed { attempts; _ } -> checki "budget of one" 1 attempts);
  checkb "outage fired" true ((Link.stats link).Link.injected_failures > 0);
  checkb "old image kept after exhausted budget" true
    (Snapshot_table.contents snap = pre && Snapshot_table.validate snap = Ok ());
  (* The transient is gone (fail_after is one-shot); a retry with the
     normal budget converges. *)
  Manager.set_retry_policy m Manager.default_retry_policy;
  let r = Manager.refresh m "s" in
  checki "clean attempt" 1 r.Manager.attempts;
  checkb "faithful after recovery" true (faithful m base 20)

let test_partition_window_heals () =
  let m, base = setup ~method_:Manager.Differential (burst, 20) in
  let link = Manager.snapshot_link m "s" in
  Link.inject_faults link ~partitions:[ (2, 6) ] ~seed:7 ();
  let r = Manager.refresh m "s" in
  checkb "retried through the partition" true (r.Manager.attempts > 1);
  checkb "aborted streams counted" true (r.Manager.aborts = r.Manager.attempts - 1);
  checkb "backoff accrued" true (r.Manager.backoff_us > 0.0);
  checkb "faithful once the window passed" true (faithful m base 20)

let test_escalates_to_full () =
  let m, base =
    setup ~method_:Manager.Differential
      ~retry:{ Manager.default_retry_policy with escalate_after = 1 }
      (burst, 20)
  in
  let link = Manager.snapshot_link m "s" in
  Link.inject_faults link ~partitions:[ (1, 2) ] ~seed:3 ();
  let r = Manager.refresh m "s" in
  checkb "escalated" true r.Manager.escalated;
  checkb "full method used" true (r.Manager.method_used = Manager.Used_full);
  checkb "faithful after escalation" true (faithful m base 20)

let test_corruption_exhausts_then_recovers () =
  let m, base =
    setup ~method_:Manager.Differential
      ~retry:{ Manager.default_retry_policy with max_attempts = 2 }
      (burst, 20)
  in
  let snap = Manager.snapshot_table m "s" in
  let pre = Snapshot_table.contents snap in
  let link = Manager.snapshot_link m "s" in
  Link.inject_faults link ~corrupt_prob:1.0 ~seed:11 ();
  (match Manager.refresh m "s" with
  | (_ : Manager.refresh_report) -> Alcotest.fail "expected Refresh_failed"
  | exception Manager.Refresh_failed { attempts; _ } -> checki "budget spent" 2 attempts);
  checkb "corruptions injected" true ((Link.stats link).Link.injected_corruptions > 0);
  checkb "old image kept under total corruption" true
    (Snapshot_table.contents snap = pre && Snapshot_table.validate snap = Ok ());
  Link.clear_faults link;
  Manager.set_retry_policy m Manager.default_retry_policy;
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  checkb "faithful on a clean line" true (faithful m base 20)

(* ------------------------------------------------------------------ *)
(* Properties over random scenarios and fault seeds. *)

(* A single transient outage: the retry loop always converges.  The
   outage fires at frame [k + 1]; a batched stream of these scripts is a
   frame of data messages and a Snaptime frame, so [max_k] is smaller
   there. *)
let prop_transient_outage ?batch_size ?(max_k = 5) ~method_ name =
  QCheck2.Test.make ~name ~count:60
    (Gen.quad script_gen threshold_gen (Gen.int_range 0 max_k) seed_gen)
    (fun (script, threshold, k, seed) ->
      let m, base = setup ~method_ ?batch_size (script, threshold) in
      Link.inject_faults (Manager.snapshot_link m "s") ~fail_after:k ~seed ();
      ignore (Manager.refresh m "s" : Manager.refresh_report);
      faithful m base threshold)

(* Silent loss at up to 20%: every outcome is atomic (committed faithful
   image, or the old image untouched), and a clean line converges. *)
let prop_atomic_under_faults ?batch_size ~method_ ~fault name =
  QCheck2.Test.make ~name ~count:60
    (Gen.quad script_gen threshold_gen (Gen.float_bound_inclusive 0.2) seed_gen)
    (fun (script, threshold, p, seed) ->
      let m, base = setup ~method_ ?batch_size (script, threshold) in
      let snap = Manager.snapshot_table m "s" in
      let pre = Snapshot_table.contents snap in
      let link = Manager.snapshot_link m "s" in
      (match fault with
      | `Drop -> Link.inject_faults link ~drop_prob:p ~seed ()
      | `Corrupt -> Link.inject_faults link ~corrupt_prob:p ~seed ());
      let atomic =
        match Manager.refresh m "s" with
        | (_ : Manager.refresh_report) -> faithful m base threshold
        | exception Manager.Refresh_failed _ -> Snapshot_table.contents snap = pre
      in
      Link.clear_faults link;
      ignore (Manager.refresh m "s" : Manager.refresh_report);
      atomic && faithful m base threshold)

(* Partition windows always heal: the send index moves on every attempt,
   so a bounded window cannot outlast a big enough retry budget. *)
let prop_partition_converges ?batch_size name =
  QCheck2.Test.make ~name ~count:60
    (Gen.quad script_gen threshold_gen (Gen.int_range 1 5) (Gen.int_range 0 8))
    (fun (script, threshold, lo, width) ->
      let m, base =
        setup ~method_:Manager.Differential
          ~retry:{ Manager.default_retry_policy with max_attempts = 16 }
          ?batch_size (script, threshold)
      in
      let link = Manager.snapshot_link m "s" in
      Link.inject_faults link ~partitions:[ (lo, lo + width) ] ~seed:0 ();
      let r = Manager.refresh m "s" in
      faithful m base threshold
      && (r.Manager.attempts = 1 || (Link.stats link).Link.injected_failures > 0))

(* ------------------------------------------------------------------ *)
(* Regressions on the manager's bookkeeping around failures. *)

let test_failed_create_leaves_no_trace () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m =
    Manager.create ~retry:{ Manager.default_retry_policy with max_attempts = 2 } ()
  in
  Manager.register_base m base;
  for i = 0 to 9 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) i) : Addr.t)
  done;
  (* A link that loses everything: the populating transfer can never
     commit, so CREATE SNAPSHOT must fail... *)
  let link = Link.create ~name:"lossy" () in
  Link.inject_faults link ~drop_prob:1.0 ~seed:1 ();
  (match Manager.create_snapshot m ~name:"s" ~base:"emp" ~method_:Manager.Ideal ~link () with
  | (_ : Manager.refresh_report) -> Alcotest.fail "expected Refresh_failed"
  | exception Manager.Refresh_failed _ -> ());
  (* ...without registering the snapshot or leaking its change capture. *)
  checkb "snapshot not registered" true (Manager.snapshot_names m = []);
  checkb "capture rolled back" true (Manager.change_log m "emp" = None);
  (* The name is immediately reusable on a healthy line. *)
  Link.clear_faults link;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp" ~method_:Manager.Ideal ~link ()
      : Manager.refresh_report);
  checkb "name reusable after failed create" true (Manager.snapshot_names m = [ "s" ]);
  checkb "capture live for the successful create" true (Manager.change_log m "emp" <> None)

let test_drop_last_ideal_detaches_capture () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 9 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) i) : Addr.t)
  done;
  ignore (Manager.create_snapshot m ~name:"s1" ~base:"emp" ~method_:Manager.Ideal ()
           : Manager.refresh_report);
  ignore (Manager.create_snapshot m ~name:"s2" ~base:"emp" ~method_:Manager.Ideal ()
           : Manager.refresh_report);
  checkb "capture installed" true (Manager.change_log m "emp" <> None);
  Manager.drop_snapshot m "s1";
  checkb "capture survives while an ideal snapshot remains" true
    (Manager.change_log m "emp" <> None);
  Manager.drop_snapshot m "s2";
  checkb "capture detached with the last ideal snapshot" true
    (Manager.change_log m "emp" = None);
  (* The observer really is unsubscribed: further base activity runs
     against no change log at all. *)
  ignore (Base_table.insert base (emp "after" 1) : Addr.t);
  checkb "still detached" true (Manager.change_log m "emp" = None)

let test_sampled_selectivity_above_threshold () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"big" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  (* 12 000 entries, exactly half under the threshold: past the 10k scan
     limit the planner samples instead of scanning. *)
  for i = 0 to 11_999 do
    ignore (Base_table.insert base (emp (Printf.sprintf "e%d" i) (i mod 100)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"half" ~base:"big"
       ~restrict:Expr.(col "salary" <. int 50)
       ~method_:Manager.Full ()
      : Manager.refresh_report);
  let q = Manager.selectivity_estimate m "half" in
  checkb
    (Printf.sprintf "sampled estimate %.3f within 0.05 of true 0.5" q)
    true
    (Float.abs (q -. 0.5) <= 0.05);
  checkb "snapshot itself is exact regardless" true
    (Snapshot_table.count (Manager.snapshot_table m "half") = 6_000)

(* A link with no receiver is a wiring error, not a transient fault: the
   typed No_receiver must surface (not a bare Failure), and the refresh
   layer must fail immediately instead of burning its retry budget. *)
let test_no_receiver_is_typed () =
  let l = Link.create ~name:"orphan" () in
  (match Link.send l (Bytes.of_string "x") with
  | () -> Alcotest.fail "send on a receiverless link succeeded"
  | exception Link.No_receiver name -> Alcotest.(check string) "link name" "orphan" name);
  let m, base = setup ~method_:Manager.Differential ([ `Ins 3 ], 10) in
  ignore (base : Base_table.t);
  Link.detach (Manager.snapshot_link m "s");
  (match Manager.refresh m "s" with
  | (_ : Manager.refresh_report) -> Alcotest.fail "refresh over a detached link succeeded"
  | exception Manager.Refresh_failed { snapshot; attempts; reason } ->
    Alcotest.(check string) "snapshot" "s" snapshot;
    checki "fails immediately, no retries" 1 attempts;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    checkb "reason says no receiver" true (contains reason "no receiver"));
  (* Reattaching heals it: the snapshot was left on its old image. *)
  Link.attach (Manager.snapshot_link m "s") (Snapshot_table.apply_bytes (Manager.snapshot_table m "s"));
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  checkb "recovers after reattach" true (faithful m base 10)

(* The same wiring error inside a group: the detached member's arm fails
   for good, the siblings' group refresh commits untouched. *)
let test_no_receiver_in_group () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  for i = 0 to 9 do
    ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  List.iter
    (fun (name, th) ->
      ignore
        (Manager.create_snapshot m ~name ~base:"emp"
           ~restrict:Expr.(col "salary" <. int th)
           ~method_:Manager.Differential ()
          : Manager.refresh_report))
    [ ("a", 10); ("b", 15); ("c", 20) ];
  Link.detach (Manager.snapshot_link m "b");
  apply_script base burst;
  let results = Manager.refresh_all m in
  (match List.assoc "b" results with
  | Error (Manager.Refresh_failed { attempts; _ }) -> checki "b fails in one attempt" 1 attempts
  | Error e -> raise e
  | Ok _ -> Alcotest.fail "b committed over a detached link");
  List.iter
    (fun (name, th) ->
      match List.assoc name results with
      | Ok r ->
        checki (name ^ " refreshed in the group") 3 r.Manager.group_size;
        checkb (name ^ " faithful") true
          (Snapshot_table.contents (Manager.snapshot_table m name)
          = expected_restricted base th)
      | Error e -> raise e)
    [ ("a", 10); ("c", 20) ]

let batched = Refresh_msg.default_batch_size

let suite =
  [
    Alcotest.test_case "partial stream is neither image (legacy) vs old image (framed)"
      `Quick test_partial_stream_neither_image;
    Alcotest.test_case "gap and corruption poison the stream" `Quick
      test_gap_and_corruption_detected;
    Alcotest.test_case "malformed frame aborts its stream at staging" `Quick
      test_malformed_frame_aborts;
    Alcotest.test_case "malformed raw message over a link raises nothing" `Quick
      test_malformed_raw_over_link;
    Alcotest.test_case "grown snapshot row relocates instead of wedging" `Quick
      test_grown_row_relocates;
    Alcotest.test_case "outage keeps old image, retry recovers" `Quick
      test_outage_keeps_old_image_then_recovers;
    Alcotest.test_case "partition window heals under backoff" `Quick
      test_partition_window_heals;
    Alcotest.test_case "repeated failures escalate to full" `Quick test_escalates_to_full;
    Alcotest.test_case "total corruption exhausts budget atomically" `Quick
      test_corruption_exhausts_then_recovers;
    QCheck_alcotest.to_alcotest (prop_transient_outage ~method_:Manager.Differential
                                   "transient outage converges (differential)");
    QCheck_alcotest.to_alcotest (prop_transient_outage ~method_:Manager.Ideal
                                   "transient outage converges (ideal)");
    QCheck_alcotest.to_alcotest (prop_transient_outage ~method_:Manager.Full
                                   "transient outage converges (full)");
    QCheck_alcotest.to_alcotest (prop_atomic_under_faults ~method_:Manager.Differential
                                   ~fault:`Drop "atomic under silent loss (differential)");
    QCheck_alcotest.to_alcotest (prop_atomic_under_faults ~method_:Manager.Ideal
                                   ~fault:`Drop "atomic under silent loss (ideal)");
    QCheck_alcotest.to_alcotest (prop_atomic_under_faults ~method_:Manager.Differential
                                   ~fault:`Corrupt "atomic under corruption (differential)");
    QCheck_alcotest.to_alcotest
      (prop_partition_converges "partition window converges (differential)");
    QCheck_alcotest.to_alcotest (prop_transient_outage ~batch_size:batched ~max_k:2
                                   ~method_:Manager.Differential
                                   "batched outage converges (differential)");
    QCheck_alcotest.to_alcotest (prop_transient_outage ~batch_size:batched ~max_k:2
                                   ~method_:Manager.Ideal
                                   "batched outage converges (ideal)");
    QCheck_alcotest.to_alcotest (prop_transient_outage ~batch_size:batched ~max_k:2
                                   ~method_:Manager.Full
                                   "batched outage converges (full)");
    QCheck_alcotest.to_alcotest (prop_atomic_under_faults ~batch_size:batched
                                   ~method_:Manager.Differential ~fault:`Drop
                                   "batched atomic under loss (differential)");
    QCheck_alcotest.to_alcotest (prop_atomic_under_faults ~batch_size:batched
                                   ~method_:Manager.Ideal ~fault:`Drop
                                   "batched atomic under loss (ideal)");
    QCheck_alcotest.to_alcotest (prop_atomic_under_faults ~batch_size:batched
                                   ~method_:Manager.Differential ~fault:`Corrupt
                                   "batched atomic under corruption");
    QCheck_alcotest.to_alcotest
      (prop_partition_converges ~batch_size:batched
         "batched partition converges");
    Alcotest.test_case "failed create leaves no trace" `Quick
      test_failed_create_leaves_no_trace;
    Alcotest.test_case "dropping last ideal snapshot detaches capture" `Quick
      test_drop_last_ideal_detaches_capture;
    Alcotest.test_case "selectivity sampled above 10k entries" `Quick
      test_sampled_selectivity_above_threshold;
    Alcotest.test_case "no receiver: typed exception, immediate refresh failure" `Quick
      test_no_receiver_is_typed;
    Alcotest.test_case "no receiver in a group: siblings unaffected" `Quick
      test_no_receiver_in_group;
  ]
