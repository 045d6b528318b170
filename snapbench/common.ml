(* Inputs, population and the correctness oracles every workload uses. *)

open Harness
module Manager = Snapdiff_core.Manager
module Base_table = Snapdiff_core.Base_table
module Snapshot_table = Snapdiff_core.Snapshot_table
module W = Snapdiff_workload.Workload
module Rng = Snapdiff_util.Rng
module Tuple = Snapdiff_storage.Tuple
module Value = Snapdiff_storage.Value
module Schema = Snapdiff_storage.Schema
module Addr = Snapdiff_storage.Addr
module Expr = Snapdiff_expr.Expr
module Eval = Snapdiff_expr.Eval
module Clock = Snapdiff_txn.Clock

(* Sample sets for the calls every workload makes. *)
type calls = {
  insert : Samples.t;  (** base_table.insert, us *)
  update : Samples.t;  (** base_table.update, us *)
  delete : Samples.t;  (** base_table.delete, us *)
  pin : Samples.t;  (** snapshot_table read_txn, us *)
  scan : Samples.t;  (** snapshot_table txn_iter, us *)
  get : Samples.t;  (** snapshot_table txn_get, us per call over a batch *)
}

let calls () =
  { insert = Samples.create (); update = Samples.create (); delete = Samples.create ();
    pin = Samples.create (); scan = Samples.create (); get = Samples.create () }

let row ~id ~qual ~payload =
  Tuple.make
    [ Value.int id; Value.str (Printf.sprintf "emp%06d" id); Value.int qual;
      Value.int payload ]

(* [n] rows with uniform qual and sequential ids, drawn before any timing. *)
let draw_rows rng n = Array.init n (fun id -> row ~id ~qual:(Rng.int rng W.qual_domain) ~payload:0)

let with_payload t p = Tuple.set t 3 (Value.int p)

(* Populate through the public insert, so its cost growth with table
   size lands in set-up time. *)
let populate c base rows =
  Array.map (fun t -> timed c.insert "base_table.insert" (fun () -> Base_table.insert base t)) rows

(* Churn: Workload.churn's mix of 3 updates (qual re-drawn) : 1 insert :
   1 delete, applied through a live-row directory the client keeps so a
   pre-drawn slot number maps to a row in O(1): slot [r] names live row
   [r mod live]. *)

type kind = Ins | Upd | Del

let draw_kind rng = match Rng.int rng 5 with 0 -> Ins | 1 -> Del | _ -> Upd

type live = { mutable addrs : Addr.t array; mutable tuples : Tuple.t array; mutable n : int }

let live_of base =
  let l = Base_table.to_user_list base in
  { addrs = Array.of_list (List.map fst l); tuples = Array.of_list (List.map snd l); n = List.length l }

let push l a t =
  if l.n = Array.length l.addrs then begin
    let grow x d = Array.append x (Array.make (max 16 l.n) d) in
    l.addrs <- grow l.addrs Addr.zero;
    l.tuples <- grow l.tuples [||]
  end;
  l.addrs.(l.n) <- a;
  l.tuples.(l.n) <- t;
  l.n <- l.n + 1

let remove l i =
  l.n <- l.n - 1;
  l.addrs.(i) <- l.addrs.(l.n);
  l.tuples.(i) <- l.tuples.(l.n)

(* One timed churn call; an empty table takes an insert. *)
let churn_op c base live kind ~slot ~qual ~payload ~insert =
  let kind = if live.n = 0 then Ins else kind in
  let slot = slot mod max 1 live.n in
  match kind with
  | Ins ->
    let t = insert () in
    push live (timed c.insert "base_table.insert" (fun () -> Base_table.insert base t)) t
  | Upd ->
    let t = Tuple.set (Tuple.set live.tuples.(slot) 2 (Value.int qual)) 3 (Value.int payload) in
    timed c.update "base_table.update" (fun () -> Base_table.update base live.addrs.(slot) t);
    live.tuples.(slot) <- t
  | Del ->
    timed c.delete "base_table.delete" (fun () -> Base_table.delete base live.addrs.(slot));
    remove live slot

(* Fingerprint of an address-ordered image. *)
let hash_step h a t = ((h * 1_000_003) + Hashtbl.hash (a, t)) land max_int

type spec = { sname : string; restrict : Expr.t; projection : string list option }

let expected_image base spec =
  let keep = Eval.compile W.schema spec.restrict in
  let project =
    match spec.projection with
    | None -> Fun.id
    | Some cols ->
      let idx = Array.of_list (List.map (Schema.index_of_exn W.schema) cols) in
      fun t -> Tuple.project_idx t idx
  in
  List.filter_map
    (fun (a, t) -> if keep t then Some (a, project t) else None)
    (Base_table.to_user_list base)

let image_hash img = List.fold_left (fun h (a, t) -> hash_step h a t) 0 img

let gets_per_read = 64

(* The final oracle for one snapshot: a pinned read of its latest epoch
   must equal the base restriction entry for entry, point gets must
   agree, and [Snapshot_table.validate] must pass.  The read goes through
   the public read path and is timed like any other read. *)
let check_snapshot c m base spec =
  attempt 1;
  let expected = expected_image base spec in
  let name = spec.sname in
  match timed c.pin "snapshot_table.read_txn" (fun () -> Manager.read_txn m name) with
  | None -> fail "%s: latest epoch not readable" name
  | Some rt ->
    let rest = ref expected and bad = ref false in
    timed c.scan "snapshot_table.txn_iter" (fun () ->
        Snapshot_table.txn_iter rt (fun a t ->
            match !rest with
            | (a', t') :: tl when a = a' && Tuple.equal t t' -> rest := tl
            | _ -> bad := true));
    if !bad || !rest <> [] then begin
      let got = Snapshot_table.txn_contents rt in
      let first_diff =
        let rec go = function
          | (a, t) :: e, (a', t') :: g -> if a = a' && Tuple.equal t t' then go (e, g) else Some (min a a')
          | (a, _) :: _, [] | [], (a, _) :: _ -> Some a
          | [], [] -> None
        in
        go (expected, got)
      in
      fail "%s: image differs from the base restriction (%d rows expected, %d held, first at %s)"
        name (List.length expected) (List.length got)
        (match first_diff with Some a -> Addr.to_string a | None -> "-")
    end;
    let probe = Array.of_list expected in
    let k = min gets_per_read (Array.length probe) in
    if k > 0 then begin
      let ok = ref true in
      let t0 = now_us () in
      span "snapshot_table.txn_get" (fun () ->
          for i = 0 to k - 1 do
            let a, t = probe.(i * Array.length probe / k) in
            match Snapshot_table.txn_get rt a with
            | Some t' when Tuple.equal t t' -> ()
            | _ -> ok := false
          done);
      Samples.add c.get ((now_us () -. t0) /. float_of_int k);
      if not !ok then fail "%s: point get disagrees with the base" name
    end;
    span "snapshot_table.release_txn" (fun () -> Snapshot_table.release_txn rt);
    (match Snapshot_table.validate (Manager.snapshot_table m name) with
     | Ok () -> ()
     | Error e -> fail "%s: validate: %s" name e)

(* Layer metrics every workload reports from [calls]. *)
let emit_calls c =
  metric "base_table.insert_us.p50" "us" (Samples.quantile c.insert 0.5);
  metric "base_table.insert_us.p99" "us" (Samples.quantile c.insert 0.99);
  metric "base_table.update_us.p50" "us" (Samples.quantile c.update 0.5);
  metric "base_table.update_us.p99" "us" (Samples.quantile c.update 0.99);
  metric "base_table.delete_us.p50" "us" (Samples.quantile c.delete 0.5);
  metric "snapshot_table.pin_us.p50" "us" (Samples.quantile c.pin 0.5);
  metric "snapshot_table.scan_ms.p50" "ms" (Samples.quantile c.scan 0.5 /. 1e3);
  metric "snapshot_table.get_us.p50" "us" (Samples.quantile c.get 0.5)

(* Per-refresh sums over [Manager.refresh_report]s. *)
type refresh_sums = {
  mutable requests : int;
  mutable reports : int;
  mutable logical : int;
  mutable frames : int;
  mutable bytes : int;
  mutable scanned : int;
  mutable skipped : int;
  mutable pages : int;
  mutable fixups : int;
  mutable data : int;
  mutable attempts : int;
  mutable aborts : int;
  mutable chunks : int;
  mutable catchup : int;
  mutable log_scanned : int;
  mutable max_hold_us : float;
  mutable pool : int * int * int * int;
      (** the base tables' own pools over the phase: hits, misses,
          evictions, write-back bytes *)
}

let sums () =
  { requests = 0; reports = 0; logical = 0; frames = 0; bytes = 0; scanned = 0;
    skipped = 0; pages = 0; fixups = 0; data = 0; attempts = 0; aborts = 0;
    chunks = 0; catchup = 0; log_scanned = 0; max_hold_us = 0.0; pool = (0, 0, 0, 0) }

let add_report s (r : Manager.refresh_report) =
  s.reports <- s.reports + 1;
  s.logical <- s.logical + r.link_logical_messages;
  s.frames <- s.frames + r.link_messages;
  s.bytes <- s.bytes + r.link_bytes;
  s.scanned <- s.scanned + r.entries_scanned;
  s.skipped <- s.skipped + r.entries_skipped;
  s.pages <- s.pages + r.pages_decoded;
  s.fixups <- s.fixups + r.fixup_writes;
  s.data <- s.data + r.data_messages;
  s.attempts <- s.attempts + r.attempts;
  s.aborts <- s.aborts + r.aborts;
  s.chunks <- s.chunks + r.chunks;
  s.catchup <- s.catchup + r.catchup_records;
  s.log_scanned <- s.log_scanned + r.log_records_scanned;
  s.max_hold_us <- Float.max s.max_hold_us r.max_lock_hold_us

module Buffer_pool = Snapdiff_storage.Buffer_pool

let pool_totals bases =
  List.fold_left
    (fun (h, m, e, w) b ->
      let st = Buffer_pool.stats (Base_table.pool b) in
      (h + st.hits, m + st.misses, e + st.evictions, w + st.writeback_bytes))
    (0, 0, 0, 0) bases

(* [track_pools s bases] starts counting the bases' pool traffic into
   [s]; call the result when the phase ends. *)
let track_pools s bases =
  let h0, m0, e0, w0 = pool_totals bases in
  fun () ->
    let h, m, e, w = pool_totals bases in
    s.pool <- (h - h0, m - m0, e - e0, w - w0)

(* Results of one refresh request: each member's report, failures counted. *)
let add_results s results =
  List.iter
    (fun (name, r) ->
      match r with
      | Ok r -> add_report s r
      | Error e -> fail "refresh %s: %s" name (Printexc.to_string e))
    results

(* Every workload reports these per-refresh layer counts, with their
   bases; a layer the workload bypasses reads 0. *)
let emit_refresh_layers s =
  let per x = iratio x s.requests in
  metric "refreshes" "count" (float_of_int s.requests);
  metric "link.frames_per_refresh" "count" (per s.frames);
  metric "link.logical_per_frame" "ratio" (iratio s.logical s.frames);
  metric "differential.entries_scanned_per_refresh" "count" (per s.scanned);
  metric "differential.pages_decoded_per_refresh" "count" (per s.pages);
  metric "differential.pruned_ratio" "ratio" (iratio s.skipped (s.scanned + s.skipped));
  metric "differential.useful_ratio" "ratio"
    (iratio s.data (counter "refresh.entries_decoded"));
  metric "fixup.writes_per_refresh" "count" (per s.fixups);
  metric "manager.attempts_per_refresh" "count" (per s.attempts);
  metric "manager.chunks_per_refresh" "count" (per s.chunks);
  metric "manager.catchup_records_per_refresh" "count" (per s.catchup);
  metric "manager.lock_hold_us.max" "us" s.max_hold_us;
  metric "wal.log_records_scanned_per_refresh" "count" (per s.log_scanned);
  let hits, misses, evictions, _ = s.pool in
  metric "buffer_pool.hits" "count" (float_of_int hits);
  metric "buffer_pool.misses" "count" (float_of_int misses);
  metric "buffer_pool.hit_ratio" "ratio" (iratio hits (hits + misses));
  metric "buffer_pool.misses_per_refresh" "count" (per misses);
  metric "buffer_pool.evictions_per_refresh" "count" (per evictions);
  let commits = counter "snapshot.stream_commits" and aborts = counter "snapshot.stream_aborts" in
  metric "snapshot_table.stream_aborts_ratio" "ratio" (iratio aborts (commits + aborts));
  let mv = counter "mvcc.commits" in
  metric "mvcc.commits" "count" (float_of_int mv);
  metric "mvcc.pages_copied_per_commit" "count" (iratio (counter "mvcc.pages_copied") mv);
  metric "mvcc.copy_bytes_per_commit" "B" (iratio (counter "mvcc.copy_bytes") mv)

(* End-to-end link metrics per refresh request. *)
let emit_link s =
  metric "link_msgs_per_refresh" "count" (iratio s.logical s.requests);
  metric "link_bytes_per_refresh" "B" (iratio s.bytes s.requests)

(* Median of [k] timed set-ups; the last one is kept for the run. *)
let setup_median k build =
  let rec go i times =
    Gc.full_major ();
    let t0 = now_us () in
    let v = build () in
    let times = ((now_us () -. t0) /. 1e6) :: times in
    if i >= k then (v, times) else go (i + 1) times
  in
  let v, times = go 1 [] in
  (* The discarded set-ups' garbage is collected before measuring. *)
  Gc.compact ();
  metric "setup_s" "s" (median times);
  note "setup_s: median of %d set-ups: %s" k
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") times));
  v
