open Snapdiff_storage
open Snapdiff_txn
module Expr = Snapdiff_expr.Expr
module Eval = Snapdiff_expr.Eval
module Typecheck = Snapdiff_expr.Typecheck
module Selectivity = Snapdiff_expr.Selectivity
module Change_log = Snapdiff_changelog.Change_log
module Link = Snapdiff_net.Link
module Model = Snapdiff_analysis.Model
module Wal = Snapdiff_wal.Wal
module Recovery = Snapdiff_wal.Recovery
module Wal_checkpoint = Snapdiff_wal.Checkpoint
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace
module Version_store = Snapdiff_mvcc.Version_store

let m_refreshes = Metrics.counter Metrics.global "refresh.refreshes"
let m_attempts = Metrics.counter Metrics.global "refresh.attempts"
let m_aborted_streams = Metrics.counter Metrics.global "refresh.aborted_streams"
let m_escalations = Metrics.counter Metrics.global "refresh.escalations"
let m_failures = Metrics.counter Metrics.global "refresh.failures"
let m_data_messages = Metrics.counter Metrics.global "refresh.data_messages"
let m_entries_scanned = Metrics.counter Metrics.global "refresh.entries_scanned"
let h_duration = Metrics.histogram Metrics.global "refresh.duration_us"
let h_backoff = Metrics.histogram Metrics.global "refresh.backoff_us"
let h_group_size = Metrics.histogram Metrics.global "refresh.group_size"
let h_chunks = Metrics.histogram Metrics.global "refresh.chunks"
let h_catchup_records = Metrics.histogram Metrics.global "refresh.catchup_records"
let h_lock_hold = Metrics.histogram Metrics.global "refresh.lock_hold_us"

let log_src = Logs.Src.create "snapdiff.refresh" ~doc:"snapshot refresh events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type method_spec =
  | Auto
  | Full
  | Differential
  | Ideal
  | Log_based

type method_used = Used_full | Used_differential | Used_ideal | Used_log_based

let method_name = function
  | Used_full -> "full"
  | Used_differential -> "differential"
  | Used_ideal -> "ideal"
  | Used_log_based -> "log-based"

type sender_phases = {
  scan_us : float;
  lock_us : float;
  load_us : float;
  fixup_us : float;
  filter_us : float;
  emit_us : float;
  scan_other_us : float;
  encode_us : float;
  send_us : float;
  fixup_bytes : int;
}

let no_sender =
  { scan_us = 0.0; lock_us = 0.0; load_us = 0.0; fixup_us = 0.0; filter_us = 0.0;
    emit_us = 0.0; scan_other_us = 0.0; encode_us = 0.0; send_us = 0.0; fixup_bytes = 0 }

type refresh_report = {
  snapshot : string;
  method_used : method_used;
  new_snaptime : Clock.ts;
  entries_scanned : int;
  entries_skipped : int;  (* proven irrelevant by page summaries, not decoded *)
  pages_decoded : int;  (* pages this stream consumed; differential scans only *)
  fixup_writes : int;
  data_messages : int;
  link_messages : int;  (* physical frames *)
  link_logical_messages : int;  (* protocol messages carried by those frames *)
  link_bytes : int;
  tail_suppressed : bool;
  log_records_scanned : int;
  attempts : int;  (* stream attempts, including the one that committed *)
  aborts : int;  (* attempts that failed or whose stream was discarded *)
  escalated : bool;  (* degraded to full refresh after repeated failures *)
  backoff_us : float;  (* simulated retry backoff accumulated *)
  group_size : int;  (* subscribers sharing the scan that served this; 1 = solo *)
  chunks : int;  (* page-range chunks the scan was split into; 0 = monolithic *)
  catchup_records : int;  (* net-changed addresses replayed from the WAL tail *)
  max_lock_hold_us : float;  (* longest single lock-hold window (chunk or catch-up) *)
  receiver : Snapshot_table.commit_phases;  (* the committing stream's receiver phases *)
  sender : sender_phases;
  wall_us : float;  (* the committing attempt's wall time *)
  residual_us : float;  (* [wall_us] not covered by any member's phases *)
  alloc_words : int;  (* minor words the committing attempt allocated *)
}

(* Retry discipline for refresh streams.  Backoff is simulated time
   (charged to the link's transfer clock), not wall-clock sleep. *)
type retry_policy = {
  max_attempts : int;
  backoff_us : float;  (* first retry's base delay *)
  backoff_multiplier : float;
  max_backoff_us : float;
  jitter : float;  (* fraction of the delay randomized, in [0, 1] *)
  escalate_after : int;  (* consecutive failures before forcing full refresh *)
}

let default_retry_policy =
  {
    max_attempts = 8;
    backoff_us = 1_000.0;
    backoff_multiplier = 2.0;
    max_backoff_us = 1_000_000.0;
    jitter = 0.5;
    escalate_after = 3;
  }

exception Unknown_table of string
exception Unknown_snapshot of string
exception Duplicate_name of string
exception Bad_definition of string

exception Refresh_failed of { snapshot : string; attempts : int; reason : string }

type base_state = {
  base_table : Base_table.t;
  mutable capture : (Change_log.t * Base_table.subscription) option;
}

type snapshot = {
  snap_name : string;
  base_name : string;
  restrict_expr : Expr.t;
  restrict : Tuple.t -> bool;
  project : Tuple.t -> Tuple.t;
  record_restrict : Eval.record_pred;  (* the scans' form of [restrict] *)
  project_cols : int array option;  (* the scans' form of [project]; None = identity *)
  table : Snapshot_table.t;
  link : Link.t;
  request_link : Link.t;  (* snapshot -> base control path *)
  mutable spec : method_spec;  (* the fleet scheduler re-routes per refresh *)
  tail_suppression : bool;
  prune : Differential.Prune_cache.t option;  (* page-qualification cache *)
  mutable selectivity : float;
  mutable cursor_seq : Change_log.seq;
  mutable cursor_lsn : Wal.lsn;
  mutable cursor_hold : Wal.hold option;  (* log-based only: keeps cursor_lsn *)
  mutable mutations_at_refresh : int;
  mutable next_epoch : int;  (* every stream attempt gets a fresh epoch *)
  mutable history : refresh_report list;  (* committed refreshes, newest first *)
}

(* Committed-refresh history kept per snapshot for the scheduler's churn
   estimates; bounded so a long-lived fleet cannot leak. *)
let history_cap = 32

let note_report s report =
  s.history <- report :: List.filteri (fun i _ -> i < history_cap - 1) s.history

type t = {
  bases : (string, base_state) Hashtbl.t;
  snapshots : (string, snapshot) Hashtbl.t;
  txns : Txn.manager;
  mutable retry : retry_policy;
  batch : int;  (* data messages per frame; 1 = one frame each *)
  mutable chunk_entries : int;  (* scan chunk size; max_int = monolithic *)
  mutable on_chunk : (unit -> unit) option;  (* interleave point between chunks *)
  rng : Snapdiff_util.Rng.t;  (* backoff jitter, selectivity sampling *)
}

let key = String.lowercase_ascii

let create ?(retry = default_retry_policy) ?(seed = 0x5EED)
    ?(batch_size = Refresh_msg.default_batch_size)
    ?(chunk_entries = max_int) () =
  {
    bases = Hashtbl.create 8;
    snapshots = Hashtbl.create 8;
    txns = Txn.create_manager ();
    retry;
    batch = max 1 batch_size;
    chunk_entries = max 1 chunk_entries;
    on_chunk = None;
    rng = Snapdiff_util.Rng.create seed;
  }

let txn_manager t = t.txns

let set_retry_policy t p = t.retry <- p

let set_chunk_entries t n = t.chunk_entries <- max 1 n

let set_chunk_hook t f = t.on_chunk <- f

let register_base t table =
  let k = key (Base_table.name table) in
  if Hashtbl.mem t.bases k then raise (Duplicate_name (Base_table.name table));
  Hashtbl.replace t.bases k { base_table = table; capture = None }

let snapshots_on t base_name =
  Hashtbl.fold
    (fun _ s acc -> if key s.base_name = key base_name then s.snap_name :: acc else acc)
    t.snapshots []

let unregister_base t name =
  if not (Hashtbl.mem t.bases (key name)) then raise (Unknown_table name);
  (match snapshots_on t name with
  | [] -> ()
  | s :: _ -> raise (Bad_definition (Printf.sprintf "snapshot %s depends on table %s" s name)));
  Hashtbl.remove t.bases (key name)

let base_state t name =
  match Hashtbl.find_opt t.bases (key name) with
  | Some b -> b
  | None -> raise (Unknown_table name)

let base t name = (base_state t name).base_table

let base_names t = Hashtbl.fold (fun _ b acc -> Base_table.name b.base_table :: acc) t.bases []

let snapshot t name =
  match Hashtbl.find_opt t.snapshots (key name) with
  | Some s -> s
  | None -> raise (Unknown_snapshot name)

let snapshot_names t = Hashtbl.fold (fun _ s acc -> s.snap_name :: acc) t.snapshots []

let snapshot_table t name = (snapshot t name).table

(* --- Versioned reads ------------------------------------------------------ *)

let read_txn ?epoch t name = Snapshot_table.read_txn ?epoch (snapshot t name).table

let read_txn_exn ?epoch t name = Snapshot_table.read_txn_exn ?epoch (snapshot t name).table

let with_read_txn ?epoch t name f =
  match Snapshot_table.read_txn ?epoch (snapshot t name).table with
  | None -> None
  | Some txn ->
    Fun.protect ~finally:(fun () -> Snapshot_table.release_txn txn) (fun () -> Some (f txn))

let snapshot_versions t name = Snapshot_table.versions (snapshot t name).table

let snapshot_base t name = (snapshot t name).base_name

let snapshot_method t name = (snapshot t name).spec

let snapshot_restrict t name = (snapshot t name).restrict_expr

let snapshot_link t name = (snapshot t name).link

let snapshot_request_link t name = (snapshot t name).request_link

let selectivity_estimate t name = (snapshot t name).selectivity

let change_log t name = Option.map fst (base_state t name).capture

let ensure_capture t base_name =
  let st = base_state t base_name in
  match st.capture with
  | Some (log, _) -> log
  | None ->
    let log = Change_log.create () in
    let sub =
      Base_table.subscribe st.base_table (fun c ->
          ignore (Change_log.append log c : Change_log.seq))
    in
    st.capture <- Some (log, sub);
    log

let drop_capture t base_name =
  let st = base_state t base_name in
  match st.capture with
  | None -> ()
  | Some (_, sub) ->
    Base_table.unsubscribe st.base_table sub;
    st.capture <- None

let mutations_since_refresh t name =
  let s = snapshot t name in
  max 0 (Base_table.mutations (base t s.base_name) - s.mutations_at_refresh)

(* Observed distinct-update activity is approximated by the operation count
   since the snapshot's last refresh, capped at 1. *)
let estimate_refresh_messages t name =
  let s = snapshot t name in
  let n = Base_table.count (base t s.base_name) and q = s.selectivity in
  let u = Model.observed_update_fraction ~mutations:(mutations_since_refresh t name) ~n in
  (`Full (Model.full_messages ~n ~q), `Differential (Model.differential_messages ~n ~q ~u ()))

(* --- Chunked concurrent refresh ------------------------------------------ *)

(* Log-based cursor holds.  A snapshot refreshing from the WAL keeps a
   hold at its cursor so truncation can never strand it on the full
   fallback; the hold follows every cursor advance and is dropped when the
   snapshot leaves the log-based method (or the catalog). *)
let set_cursor_lsn s lsn =
  s.cursor_lsn <- lsn;
  Option.iter (fun h -> Wal.move_hold h lsn) s.cursor_hold

let release_cursor_hold s =
  Option.iter Wal.release_hold s.cursor_hold;
  s.cursor_hold <- None

let sync_cursor_hold t s =
  match (s.spec, Base_table.wal (base t s.base_name), s.cursor_hold) with
  | Log_based, Some _, Some h -> Wal.move_hold h s.cursor_lsn
  | Log_based, Some wal, None ->
    s.cursor_hold <- Some (Wal.hold wal ~holder:("cursor:" ^ s.snap_name) s.cursor_lsn)
  | _ -> release_cursor_hold s

(* Committed changes to [b] since the LSN captured at scan start, folded
   per address.  An address whose changes cancel out is kept: the fuzzy
   scan may have shipped its intermediate state (a row inserted ahead of
   the cursor and deleted behind it).  Skipped entirely (no log scan) when
   the per-table LSN map proves the table quiescent since the capture.
   The scan's hold at [lsn0] keeps the tail: no truncation passes it. *)
let catchup_net_changes b ~wal ~lsn0 =
  if Wal.oldest_retained wal > lsn0 then
    failwith "Manager: the WAL was truncated past a held catch-up LSN";
  let table = Base_table.name b in
  match Wal.last_lsn_for wal ~table with
  | Some l when l >= lsn0 ->
    Trace.with_span "refresh.catchup" ~attrs:[ ("table", table) ] (fun () ->
        fst (Recovery.net_changes ~keep_unchanged:true wal ~table ~since:lsn0))
  | _ -> []

(* A scan source, opened once the base is locked: the address-ordered
   pages it walks (0 for the log sources, which read no pages) and how to
   close every member's stream given the catch-up overlay — tails, the
   overlay's Upsert/Remove messages, then the Snaptime commit markers.
   [sc_close] returns each member's report and commit hook.
   [sc_fixup_time] is the FixupTime of a scan that restores a deferred-mode
   base's annotations as it goes (None for one that only reads them). *)
type scan = {
  sc_pages : int;
  sc_scan_to : last_page:int -> unit;
  sc_close : (Addr.t * Recovery.net) list -> (refresh_report * (unit -> unit)) array;
  sc_fixup_time : Clock.ts option;
  sc_timing : unit -> Fixup.timing list;  (* the scan cursors' page phases *)
}

(* A catch-up change the scan's fix-up never saw: an entry inserted
   behind the cursor (or past the pages the scan covers) still carries a
   NULL PrevAddr, so it is outside the chain although the overlay ships
   it. *)
let unchained b (addr, net) =
  net.Recovery.after <> None
  && (match Base_table.get_annotations b addr with
     | Some { Annotations.prev_addr = None; _ } -> true
     | _ -> false)

(* The one lock/hold wrapper every refresh attempt runs under.

   Monolithic ([chunked = None]) is the one-chunk case: the table is locked
   in its final mode (X when the scan writes annotations, else S) for the
   whole scan, with no page locks, no interleave point and no catch-up.

   Chunked ([Some wal]): a table intention lock (IX/IS) plus a WAL hold
   ([scan:<base>]) at the log's end keeping the catch-up start.  The scan
   walks chunks of roughly [t.chunk_entries] entries (whole pages at the
   table's current average fill); each chunk's pages are locked in the
   final mode before the previous chunk's are released (lock coupling —
   no updater can slip between the cursor's footsteps), then the
   interleave hook runs so cooperative updaters can act on the released
   pages.  One short table-S
   catch-up replays the WAL tail before the Snaptime markers: the upgrade
   IS+S = S (or IX+S = SIX) still excludes updaters for its short window,
   which is what makes the committed stream transaction-consistent as of
   catch-up time.  When the scan restores annotations and the catch-up
   ships an unchained entry, the table goes to X and the fix-up pass runs
   once more, stamped with the scan's FixupTime: a row the stream carries
   must be in the chain, or its delete before the next differential
   refresh would leave no anomaly and the row would stay in the snapshot.
   Pages the walk restored keep their summaries, so the pass decodes only
   the pages changed behind the cursor.  Its writes are charged to the
   first member.  The protocol's own figures (chunks, catch-up records,
   longest lock-hold window) are stamped on the members' reports.

   A failed attempt aborts its transaction rather than committing it:
   abort releases the same locks but keeps the commit/abort accounting
   honest and runs any registered undo actions. *)
let locked_scan t b ~write ~chunked open_scan =
  let txn = Txn.begin_txn t.txns in
  let table = Base_table.lock_resource b in
  let final = if write then Lock.X else Lock.S in
  let hold = ref None in
  let release () = Option.iter Wal.release_hold !hold in
  (* The scan's sub-phases: lock waits here, the cursors' page phases
     from the source (and from the catch-up's fix-up pass, if it runs). *)
  let lock_us = ref 0.0 in
  let lock r mode =
    let t0 = Trace.now_us () in
    Txn.lock txn r mode;
    lock_us := !lock_us +. (Trace.now_us () -. t0)
  in
  let refix_timing = ref [] in
  let with_phases sc outs =
    let timings = !refix_timing @ sc.sc_timing () in
    let sum f = List.fold_left (fun acc tm -> acc +. f tm) 0.0 timings in
    let load_us = sum (fun tm -> tm.Fixup.load_us)
    and fixup_us = sum (fun tm -> tm.Fixup.fixup_us)
    and filter_us = sum (fun tm -> tm.Fixup.filter_us)
    and emit_us = sum (fun tm -> tm.Fixup.emit_us) in
    Array.map
      (fun (r, on_commit) ->
        ( { r with
            sender = { r.sender with lock_us = !lock_us; load_us; fixup_us; filter_us; emit_us } },
          on_commit ))
      outs
  in
  match
    match chunked with
    | None ->
      lock table final;
      let sc = open_scan () in
      sc.sc_scan_to ~last_page:sc.sc_pages;
      with_phases sc (sc.sc_close [])
    | Some wal ->
      lock table (if write then Lock.IX else Lock.IS);
      let lsn0 = Wal.end_lsn wal in
      hold := Some (Wal.hold wal ~holder:("scan:" ^ Base_table.name b) lsn0);
      let sc = open_scan () in
      let max_hold = ref 0.0 in
      let held_since t0 =
        let d = Trace.now_us () -. t0 in
        if d > !max_hold then max_hold := d;
        Metrics.observe h_lock_hold d
      in
      let per_chunk =
        max 1 (t.chunk_entries / max 1 (Base_table.count b / max 1 sc.sc_pages))
      in
      let page_locks lo hi f =
        for p = lo to hi do
          f (Base_table.page_lock_resource b p)
        done
      in
      let release_chunk = function
        | Some (lo, hi, t0) ->
          page_locks lo hi (fun r -> ignore (Txn.unlock txn r : int list));
          held_since t0;
          Option.iter (fun f -> f ()) t.on_chunk
        | None -> ()
      in
      let rec walk prev lo chunks =
        if lo > sc.sc_pages then begin
          release_chunk prev;
          chunks
        end
        else begin
          let hi = min sc.sc_pages (lo + per_chunk - 1) in
          let t0 = Trace.now_us () in
          page_locks lo hi (fun r -> lock r final);
          release_chunk prev;
          (* The span's attributes are built only when tracing is on. *)
          if Trace.enabled () then
            Trace.with_span "refresh.chunk"
              ~attrs:[ ("table", Base_table.name b); ("pages", Printf.sprintf "%d-%d" lo hi) ]
              (fun () -> sc.sc_scan_to ~last_page:hi)
          else sc.sc_scan_to ~last_page:hi;
          walk (Some (lo, hi, t0)) (hi + 1) (chunks + 1)
        end
      in
      let chunks = walk None 1 0 in
      let t0 = Trace.now_us () in
      lock table Lock.S;
      let nets = catchup_net_changes b ~wal ~lsn0 in
      let refixed =
        match sc.sc_fixup_time with
        | Some fixup_time when List.exists (unchained b) nets ->
          lock table Lock.X;
          Trace.with_span "refresh.fixup" ~attrs:[ ("table", Base_table.name b) ] (fun () ->
              let f = Fixup.start b ~fixup_time in
              Fixup.scan_to f ~last_page:max_int;
              refix_timing := [ Fixup.timing f ];
              Fixup.stats f)
        | _ -> { Fixup.scanned = 0; skipped = 0; writes = 0; bytes = 0 }
      in
      let outs = with_phases sc (sc.sc_close nets) in
      held_since t0;
      let catchup = List.length nets in
      Metrics.observe h_chunks (float_of_int chunks);
      Metrics.observe h_catchup_records (float_of_int catchup);
      Array.mapi
        (fun i (r, on_commit) ->
          ( { r with data_messages = r.data_messages + catchup; chunks;
              catchup_records = catchup; max_lock_hold_us = !max_hold;
              fixup_writes = (r.fixup_writes + if i = 0 then refixed.Fixup.writes else 0);
              sender =
                { r.sender with
                  fixup_bytes = (r.sender.fixup_bytes + if i = 0 then refixed.Fixup.bytes else 0) } },
            on_commit ))
        outs
  with
  | outs ->
    release ();
    ignore (Txn.commit txn : int list);
    outs
  | exception e ->
    release ();
    if Txn.is_active txn then ignore (Txn.abort txn : int list);
    raise e

type checkpoint_report = {
  cp_base : string;
  cp_begin_lsn : Wal.lsn;
  cp_end_lsn : Wal.lsn;
  cp_pages_snapshotted : int;
  cp_pages_flushed : int;
  cp_bytes_written : int;
  cp_truncated_to : Wal.lsn;
  cp_log_bytes_reclaimed : int;
  cp_gated : (string * Wal.lsn) list;  (* holds that stopped the truncation *)
}

(* The registered bases that write to [wal], by name. *)
let bases_on_log t wal =
  Hashtbl.fold
    (fun _ bst acc ->
      match Base_table.wal bst.base_table with
      | Some w when w == wal -> bst.base_table :: acc
      | _ -> acc)
    t.bases []
  |> List.sort (fun a b -> compare (Base_table.name a) (Base_table.name b))

(* Checkpoint one physical log: fuzzy-checkpoint every base that writes to
   it, then truncate the log once, to the minimum begin LSN (each base's
   redo start); the WAL stops the truncation at its lowest live hold.
   Each base's Begin_checkpoint record carries the transactions genuinely
   in flight at this instant.  WAL-level autocommit (Base_table.log_op)
   appends Begin/op/Commit atomically, so these are the manager's
   lock-level transactions — refresh scans and writers mid-flight.  A
   base's checkpoint runs under a hold at the log's oldest record: a
   vacuum fired from the yield hook can then never truncate records the
   fuzzy pass has yet to fence.  The hold is released before the
   truncation, so a checkpoint never stops itself.  The report sums the
   bases' page and byte counts and spans their checkpoint records. *)
let checkpoint_log t ~name wal =
  let stats =
    List.map
      (fun b ->
        Wal.with_hold wal ~holder:("checkpoint:" ^ Base_table.name b)
          (Wal.oldest_retained wal) (fun () ->
            Wal_checkpoint.run ~wal ~pool:(Base_table.pool b)
              ~active:(Txn.active_ids t.txns) ?yield:t.on_chunk ()))
      (bases_on_log t wal)
  in
  let fold f init = List.fold_left f init stats in
  let sum f = fold (fun acc st -> acc + f st) 0 in
  let ceiling = fold (fun acc st -> min acc st.Wal_checkpoint.begin_lsn) (Wal.end_lsn wal) in
  let bytes_before = Wal.byte_size wal in
  let gated = Wal.truncate_before wal ceiling in
  {
    cp_base = name;
    cp_begin_lsn = ceiling;
    cp_end_lsn = fold (fun acc st -> max acc st.Wal_checkpoint.end_lsn) ceiling;
    cp_pages_snapshotted = sum (fun st -> st.Wal_checkpoint.pages_snapshotted);
    cp_pages_flushed = sum (fun st -> st.Wal_checkpoint.pages_flushed);
    cp_bytes_written = sum (fun st -> st.Wal_checkpoint.bytes_written);
    cp_truncated_to = Wal.oldest_retained wal;
    cp_log_bytes_reclaimed = bytes_before - Wal.byte_size wal;
    cp_gated = gated;
  }

let checkpoint t base_name =
  let b = base t base_name in
  match Base_table.wal b with
  | Some wal -> checkpoint_log t ~name:(Base_table.name b) wal
  | None ->
    raise (Bad_definition (Printf.sprintf "table %s has no WAL to checkpoint" base_name))

(* --- Vacuum --------------------------------------------------------------- *)

type snapshot_vacuum = {
  sv_snapshot : string;
  sv_examined : int;
  sv_reclaimed : int;
  sv_zombied : int;
  sv_bytes : int;
  sv_leases : (string * int) list;
}

type wal_vacuum = {
  wv_bases : string list;  (* bases sharing this physical log, sorted *)
  wv_truncated_to : Wal.lsn;
  wv_log_bytes_reclaimed : int;
  wv_gated : (string * Wal.lsn) list;
}

type vacuum_report = {
  vac_dry_run : bool;
  vac_snapshots : snapshot_vacuum list;
  vac_wals : wal_vacuum list;
}

(* Reclaim everything no longer held, in one pass: expired snapshot
   versions first (a pin holds a version back), then each physical log
   through [checkpoint_log], so a live scan or log cursor holds back the
   vacuum exactly as it holds back a checkpoint. *)
let vacuum ?older_than ?(dry_run = false) t =
  let snaps =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.snapshots []
    |> List.sort (fun a b -> compare a.snap_name b.snap_name)
  in
  let vac_snapshots =
    List.map
      (fun s ->
        let st = Snapshot_table.vacuum ?older_than ~dry_run s.table in
        {
          sv_snapshot = s.snap_name;
          sv_examined = st.Version_store.vac_examined;
          sv_reclaimed = st.Version_store.vac_reclaimed;
          sv_zombied = st.Version_store.vac_zombied;
          sv_bytes = st.Version_store.vac_bytes;
          sv_leases = Snapshot_table.holders s.table;
        })
      snaps
  in
  let wals =
    Hashtbl.fold
      (fun _ bst acc ->
        match Base_table.wal bst.base_table with
        | Some w when not (List.memq w acc) -> w :: acc
        | _ -> acc)
      t.bases []
  in
  let vac_wals =
    List.map
      (fun wal ->
        let wv_bases = List.map Base_table.name (bases_on_log t wal) in
        if dry_run then begin
          (* What a vacuum now could reclaim at best: a checkpoint's begin
             LSN can reach at most the log's current end. *)
          let floor, gated = Wal.truncation_floor wal (Wal.end_lsn wal) in
          (* LSNs are byte offsets, so the reclaimable span is a byte count. *)
          { wv_bases; wv_truncated_to = floor;
            wv_log_bytes_reclaimed = floor - Wal.oldest_retained wal; wv_gated = gated }
        end
        else begin
          let cp = checkpoint_log t ~name:(String.concat "," wv_bases) wal in
          { wv_bases; wv_truncated_to = cp.cp_truncated_to;
            wv_log_bytes_reclaimed = cp.cp_log_bytes_reclaimed; wv_gated = cp.cp_gated }
        end)
      wals
    |> List.sort (fun a b -> compare a.wv_bases b.wv_bases)
  in
  { vac_dry_run = dry_run; vac_snapshots; vac_wals }

(* --- The refresh pipeline ------------------------------------------------- *)

(* The one constructor of a [refresh_report]: the counts given, the
   traffic [link] carried since its stats read [since], and one clean
   attempt with no ledger — the attempt function stamps its retries,
   scan figures and phases on a manager refresh's report. *)
let make_report ~snapshot method_used ~new_snaptime ~entries_scanned ~data_messages ~link ~since =
  let now = Link.stats link in
  {
    snapshot;
    method_used;
    new_snaptime;
    entries_scanned;
    entries_skipped = 0;
    pages_decoded = 0;
    fixup_writes = 0;
    data_messages;
    link_messages = now.Link.messages - since.Link.messages;
    link_logical_messages = now.Link.logical_messages - since.Link.logical_messages;
    link_bytes = now.Link.bytes - since.Link.bytes;
    tail_suppressed = false;
    log_records_scanned = 0;
    attempts = 1;
    aborts = 0;
    escalated = false;
    backoff_us = 0.0;
    group_size = 1;
    chunks = 0;
    catchup_records = 0;
    max_lock_hold_us = 0.0;
    receiver = Snapshot_table.no_phases;
    sender = no_sender;
    wall_us = 0.0;
    residual_us = 0.0;
    alloc_words = 0;
  }

(* The differential scan trusts the annotation state to be current as of
   the snapshot's SnapTime.  A log-based or ideal refresh of a
   deferred-mode base ships rows without restoring their annotations (a
   row inserted and shipped, then deleted before any fix-up, leaves no
   anomaly behind), so the first differential refresh after one runs as a
   priming full refresh instead. *)
let choose_method t s =
  let chosen =
    match s.spec with
    | Full -> Used_full
    | Differential -> Used_differential
    | Ideal -> Used_ideal
    | Log_based -> Used_log_based
    | Auto ->
      let `Full full, `Differential diff = estimate_refresh_messages t s.snap_name in
      if diff <= full then Used_differential else Used_full
  in
  match (chosen, s.history) with
  | Used_differential, { method_used = Used_log_based | Used_ideal; _ } :: _
    when Base_table.mode (base t s.base_name) = Base_table.Deferred ->
    Used_full
  | _ -> chosen

(* The slowest ideal cursor on a base: change-log space below it is
   garbage ([max_int] when no ideal snapshot remains). *)
let min_ideal_cursor t base_name =
  Hashtbl.fold
    (fun _ o acc ->
      if key o.base_name = key base_name && o.spec = Ideal then min acc o.cursor_seq else acc)
    t.snapshots max_int

(* One snapshot's refresh as it moves through the pipeline.  The retry
   history lives here, so a member whose group arm failed re-enters the
   same attempt function as a group of one with the group attempt counted
   as attempt 1: escalation and the attempt cap see one consecutive-failure
   history, not two.  The last three fields describe the attempt under
   way: its epoch, the link's counters before its stream, and — once the
   link has failed — why, flagged when retrying cannot help. *)
type member = {
  snap : snapshot;
  populate : bool;  (* CREATE SNAPSHOT's transfer: no Request, always full *)
  started : float;
  mutable attempt : int;  (* 1-based number of the attempt under way *)
  mutable backoff : float;  (* simulated backoff accumulated so far *)
  mutable epoch : int;
  mutable before : Link.stats;
  mutable failure : (string * bool) option;
  mutable xmit_us : float;  (* this attempt's time inside the stream's xmit *)
}

let member ?(populate = false) s =
  { snap = s; populate; started = Trace.now_us (); attempt = 1; backoff = 0.0;
    epoch = 0; before = Link.stats s.link; failure = None; xmit_us = 0.0 }

(* A member's report of the attempt under way: what its link carried
   since the attempt began. *)
let report_of m method_used =
  make_report ~snapshot:m.snap.snap_name method_used ~link:m.snap.link ~since:m.before

let report_of_sub m used (r : Differential.report) =
  {
    (report_of m used ~new_snaptime:r.new_snaptime
       ~entries_scanned:r.entries_scanned ~data_messages:r.data_messages)
    with
    entries_skipped = r.entries_skipped;
    pages_decoded = r.pages_decoded;
    fixup_writes = r.fixup_writes;
    tail_suppressed = r.tail_suppressed;
    sender = { no_sender with fixup_bytes = r.fixup_bytes };
  }

(* After [escalate_after] consecutive failures the method degrades to a
   full refresh — the stream that needs the least shared state to
   converge. *)
let escalated t m = t.retry.escalate_after > 0 && m.attempt - 1 >= t.retry.escalate_after

(* The source an attempt of [m] reads.  A log-based snapshot whose cursor
   fell behind the retained log falls back to a full scan: "One could
   bound the buffering required and transmit the entire (restricted) base
   table if the last refresh of the snapshot precedes the earliest
   retained changes." *)
let method_for t b m =
  match if m.populate || escalated t m then Used_full else choose_method t m.snap with
  | Used_log_based when m.snap.cursor_lsn < Wal.oldest_retained (Option.get (Base_table.wal b)) ->
    Log.info (fun f ->
        f "snapshot %s: log truncated past its cursor; falling back to full refresh"
          m.snap.snap_name);
    Used_full
  | used -> used

(* The methods that read the base table's pages; the others read a log. *)
let scans_table = function
  | Used_full | Used_differential -> true
  | Used_ideal | Used_log_based -> false

(* Open the scan source of [members], whose methods are [useds], under the
   attempt's locks.  Full and differential members share one table scan,
   each a subscriber of its own kind; on a deferred-mode base that scan's
   fix-up restores the annotations of every page it loads, so a full
   refresh leaves them current as of its SnapTime, as a later
   differential refresh of the snapshot requires.  An ideal or log-based
   member reads its log as a group of one. *)
let open_source t b useds members xmits () =
  let m0 = members.(0) in
  let s = m0.snap in
  let unpaged close =
    { sc_pages = 0; sc_scan_to = (fun ~last_page:_ -> ()); sc_close = close; sc_fixup_time = None;
      sc_timing = (fun () -> []) }
  in
  (* The catch-up overlay: each member's view of the WAL tail's net
     changes as Upsert/Remove messages.  WAL records carry stored
     (annotated) tuples, so the user part is extracted before the
     restriction/projection apply.  Exactly one message per net-changed
     address: an address whose final version fails the restriction gets a
     Remove (idempotent if the snapshot never held it). *)
  let overlay nets =
    Array.iteri
      (fun i { snap; _ } ->
        List.iter
          (fun (addr, net) ->
            xmits.(i)
              (match Option.map Annotations.user_part net.Recovery.after with
              | Some user when snap.restrict user ->
                Refresh_msg.Upsert { addr; row = Row.of_tuple (snap.project user) }
              | _ -> Refresh_msg.Remove { addr }))
          nets)
      members
  in
  match useds.(0) with
  | Used_full | Used_differential ->
    let subs =
      Array.mapi
        (fun i { snap; _ } ->
          {
            Differential.sub_full = useds.(i) = Used_full;
            sub_snaptime = Snapshot_table.snaptime snap.table;
            sub_restrict = snap.record_restrict;
            sub_project = snap.project_cols;
            sub_tail_suppression =
              (if snap.tail_suppression then Some (Snapshot_table.high_water snap.table)
               else None);
            sub_prune = snap.prune;
            sub_xmit = xmits.(i);
          })
        members
    in
    let c = Differential.start ~base:b subs in
    {
      sc_pages = Differential.pages c;
      sc_scan_to = Differential.scan_to c;
      sc_close =
        (fun nets ->
          Differential.emit_tails c;
          overlay nets;
          let g = Differential.finish c in
          Array.mapi
            (fun i m -> (report_of_sub m useds.(i) g.Differential.sub_reports.(i), ignore))
            members);
      sc_fixup_time =
        (if Base_table.mode b = Base_table.Deferred then Some (Differential.fixup_time c) else None);
      sc_timing = (fun () -> [ Differential.timing c ]);
    }
  | Used_ideal ->
    let log = ensure_capture t s.base_name in
    unpaged (fun _ ->
        let r =
          Ideal.refresh ~base:b ~log ~cursor:s.cursor_seq ~restrict:s.restrict
            ~project:s.project ~xmit:xmits.(0) ()
        in
        let on_commit () =
          s.cursor_seq <- r.Ideal.new_cursor;
          (* Reclaim change-log space below the slowest ideal cursor on
             this base — the buffer-management obligation the paper charges
             change buffering with.  Strictly after commit: truncating below
             the new cursor while the stream could still abort is permanent
             loss. *)
          let floor = min (min_ideal_cursor t s.base_name) r.Ideal.new_cursor in
          if floor < max_int then Change_log.truncate_below log floor
        in
        [| ( report_of m0 Used_ideal ~new_snaptime:r.Ideal.new_snaptime
               ~entries_scanned:r.Ideal.net_changes ~data_messages:r.Ideal.data_messages,
             on_commit ) |])
  | Used_log_based ->
    let wal = Option.get (Base_table.wal b) in
    unpaged (fun _ ->
        let r =
          Log_based.refresh ~base:b ~wal ~cursor:s.cursor_lsn ~restrict:s.restrict
            ~project:s.project ~xmit:xmits.(0) ()
        in
        [| ( {
               (report_of m0 Used_log_based ~new_snaptime:r.Log_based.new_snaptime
                  ~entries_scanned:r.Log_based.data_messages
                  ~data_messages:r.Log_based.data_messages)
               with
               log_records_scanned = r.Log_based.log_records_scanned;
             },
             fun () -> set_cursor_lsn s r.Log_based.new_cursor ) |])

exception Abandoned
(* Internal: every member's stream has failed, so no one is left to feed;
   the attempt stops scanning and aborts its lock transaction. *)

(* The one attempt function.  Every member gets its own epoch, Request
   control message, framed/batched stream on its own link and commit
   check, while the base is scanned once.  Every message is framed with
   the epoch and a sequence number so the receiver can detect gaps,
   truncation and corruption, and apply the stream atomically at its
   Snaptime commit marker.  A member whose link fails is muted (its sends
   become no-ops) rather than allowed to abort the scan: the others'
   streams must not notice, and the scan's shared page-decode/fix-up
   state must stay deterministic.  Returns each member's outcome: its
   report and an [on_commit] hook that advances its cursors — which must
   only run once the receiver has committed the epoch, or an aborted
   stream would silently lose the changes between the old and new cursor
   on retry — or its failure. *)
let attempt t b members =
  let started = Trace.now_us () and words0 = Gc.minor_words () in
  let n = Array.length members in
  let useds = Array.map (method_for t b) members in
  let live = ref n in
  let fail m failure =
    if m.failure = None then begin
      m.failure <- Some failure;
      decr live
    end
  in
  let mark m = function
    | Link.Link_down l -> fail m (Printf.sprintf "link %s down mid-stream" l, false)
    | Link.No_receiver l ->
      (* A wiring error, not a transient fault: no receiver will appear by
         retrying, so the member fails for good. *)
      fail m (Printf.sprintf "link %s: no receiver attached" l, true)
    | e -> raise e
  in
  Array.iter
    (fun m ->
      let s = m.snap in
      Metrics.incr m_attempts;
      if escalated t m && m.attempt - 1 = t.retry.escalate_after then Metrics.incr m_escalations;
      m.epoch <- s.next_epoch;
      s.next_epoch <- m.epoch + 1;
      m.before <- Link.stats s.link;
      m.failure <- None;
      m.xmit_us <- 0.0;
      (* "The refresh algorithm is initiated by sending the last snapshot
         refresh time (SnapTime) ... to the base table." *)
      if not m.populate then
        try
          Trace.with_span "refresh.request" ~attrs:[ ("snapshot", s.snap_name) ] (fun () ->
              Link.send s.request_link
                (Refresh_msg.encode
                   (Refresh_msg.Request { snaptime = Snapshot_table.snaptime s.table })))
        with e -> mark m e)
    members;
  let writers =
    Array.map (fun m -> Refresh_msg.writer ~batch_size:t.batch ~epoch:m.epoch m.snap.link) members
  in
  let xmits =
    Array.mapi
      (fun i m ->
        let w = writers.(i) in
        fun msg ->
          if m.failure = None then begin
            let t0 = Trace.now_us () in
            let charge () = m.xmit_us <- m.xmit_us +. (Trace.now_us () -. t0) in
            match Refresh_msg.write w msg with
            | () -> charge ()
            | exception e ->
              charge ();
              mark m e;
              if !live = 0 then raise Abandoned
          end)
      members
  in
  let deferred = Base_table.mode b = Base_table.Deferred in
  let scans_table = scans_table useds.(0) in
  (* Chunking applies to a table scan over a WAL-backed base when a chunk
     size is configured. *)
  let chunked =
    match Base_table.wal b with
    | Some wal when t.chunk_entries < max_int && scans_table -> Some wal
    | _ -> None
  in
  let span, attrs =
    if n = 1 then
      ( "refresh.scan",
        [ ("snapshot", members.(0).snap.snap_name); ("method", method_name useds.(0)) ] )
    else ("refresh.group", [ ("base", Base_table.name b); ("subscribers", string_of_int n) ])
  in
  let scan_wall = ref 0.0 in
  let outs =
    if !live = 0 then None
    else
      match
        Trace.with_span span ~attrs (fun () ->
            let t0 = Trace.now_us () in
            let outs =
              locked_scan t b ~write:(deferred && scans_table) ~chunked
                (open_source t b useds members xmits)
            in
            scan_wall := Trace.now_us () -. t0;
            outs)
      with
      | outs -> Some outs
      | exception Abandoned -> None
  in
  if n > 1 then Metrics.observe h_group_size (float_of_int n);
  (* Taken now, not when a member settles: a failed sibling's solo retries
     may run updaters from the chunk hook before the later members settle. *)
  let wal_end = Option.map Wal.end_lsn (Base_table.wal b) in
  let mutations = Base_table.mutations b in
  let scan_us =
    Float.max 0.0 (Array.fold_left (fun acc m -> acc -. m.xmit_us) !scan_wall members)
  in
  (* Each committed member's ledger: its receiver phases; its send time,
     the writer's time inside the link net of those phases (which run
     inside it); and its encode time, the rest of its xmit.  A member
     that did not commit has no ledger; its xmit time stays in the
     residual. *)
  let ledgers =
    Array.mapi
      (fun i m ->
        if outs <> None && m.failure = None
           && Snapshot_table.last_committed_epoch m.snap.table = m.epoch
        then begin
          let receiver = Snapshot_table.last_commit_phases m.snap.table in
          let received =
            receiver.decode_us +. receiver.freeze_us +. receiver.replay_us +. receiver.publish_us
          in
          let link_us = Refresh_msg.link_us writers.(i) in
          let encode_us = Float.max 0.0 (m.xmit_us -. link_us) in
          let send_us = Float.max 0.0 (link_us -. received) in
          Some (receiver, encode_us, send_us, encode_us +. send_us +. received)
        end
        else None)
      members
  in
  let wall_us = Trace.now_us () -. started in
  let alloc_words = int_of_float (Gc.minor_words () -. words0) in
  let residual_us =
    Array.fold_left
      (fun acc -> function Some (_, _, _, spent) -> acc -. spent | None -> acc)
      (wall_us -. scan_us) ledgers
  in
  Array.mapi
    (fun i m ->
      let s = m.snap in
      match (outs, m.failure, ledgers.(i)) with
      | Some outs, None, Some (receiver, encode_us, send_us, _) ->
        let report, on_commit = outs.(i) in
        Ok
          ( {
              report with
              group_size = n;
              (* CREATE SNAPSHOT's pass, like R* adding the funny fields, is
                 not charged to the report. *)
              fixup_writes = (if m.populate then 0 else report.fixup_writes);
              receiver;
              sender =
                (let p = report.sender in
                 { p with
                   scan_us;
                   scan_other_us =
                     Float.max 0.0
                       (scan_us -. p.lock_us -. p.load_us -. p.fixup_us -. p.filter_us
                      -. p.emit_us);
                   encode_us;
                   send_us;
                   fixup_bytes = (if m.populate then 0 else p.fixup_bytes) });
              wall_us;
              residual_us;
              alloc_words;
            },
            fun () ->
              on_commit ();
              s.mutations_at_refresh <- mutations;
              (* A committed refresh of any method leaves the snapshot
                 consistent as of the WAL's end, so the log cursor advances
                 too — a later scheduler-driven switch to the log-based
                 method then replays only the genuine tail.  The log-based
                 method's own hook has set its exact new cursor. *)
              if useds.(i) <> Used_log_based then Option.iter (set_cursor_lsn s) wal_end )
      | _, Some failure, _ -> Error failure
      | _, None, _ -> Error (Snapshot_table.abort_reason s.table ~epoch:m.epoch, false))
    members

let backoff_delay t ~failures =
  let p = t.retry in
  let raw = p.backoff_us *. Float.pow p.backoff_multiplier (float_of_int (failures - 1)) in
  let capped = Float.min p.max_backoff_us raw in
  if p.jitter <= 0.0 then capped
  else capped *. (1.0 -. (p.jitter /. 2.0) +. Snapdiff_util.Rng.float t.rng p.jitter)

(* The one settle function.  A committed member runs its commit hook and
   is recorded; a failed one aborts its open epoch at the receiver (which
   keeps its previous consistent image) and, unless the failure is final,
   backs off — simulated time charged to the link, with jitter — and
   re-enters the attempt function as a group of one. *)
let rec settle t b m outcome =
  let s = m.snap in
  match outcome with
  | Ok (report, on_commit) ->
    on_commit ();
    let report =
      { report with attempts = m.attempt; aborts = m.attempt - 1; escalated = escalated t m;
        backoff_us = m.backoff }
    in
    note_report s report;
    Metrics.incr m_refreshes;
    Metrics.add m_data_messages report.data_messages;
    Metrics.add m_entries_scanned report.entries_scanned;
    Metrics.observe h_duration (Trace.now_us () -. m.started);
    Log.info (fun f ->
        f "refresh %s via %s (group of %d, attempt %d%s): %d data msgs, %d bytes, %d fixups, \
           snaptime %d"
          report.snapshot (method_name report.method_used) report.group_size report.attempts
          (if report.escalated then ", escalated to full" else "")
          report.data_messages report.link_bytes report.fixup_writes report.new_snaptime);
    Ok report
  | Error (reason, fatal) ->
    Snapshot_table.abort_stream s.table ~reason;
    Metrics.incr m_aborted_streams;
    Log.info (fun f ->
        f "refresh %s attempt %d/%d failed: %s" s.snap_name m.attempt t.retry.max_attempts
          reason);
    if fatal || m.attempt >= t.retry.max_attempts then begin
      Metrics.incr m_failures;
      Metrics.observe h_duration (Trace.now_us () -. m.started);
      Error (Refresh_failed { snapshot = s.snap_name; attempts = m.attempt; reason })
    end
    else begin
      let d = backoff_delay t ~failures:m.attempt in
      m.backoff <- m.backoff +. d;
      Metrics.observe h_backoff d;
      Trace.event "refresh.retry"
        ~attrs:
          [ ("snapshot", s.snap_name);
            ("attempt", string_of_int m.attempt);
            ("reason", reason);
            ("backoff_us", Printf.sprintf "%.0f" d) ];
      Link.advance_time s.link d;
      (* The transport layer re-establishes a dead link after backoff; an
         armed fault plan stays armed and may kill it again. *)
      if not (Link.is_up s.link) then Link.set_up s.link true;
      m.attempt <- m.attempt + 1;
      settle t b m (attempt t b [| m |]).(0)
    end

(* Attempt [members] as one group, then settle each in order.  A solo
   refresh — a group of one — runs inside its own [refresh] span. *)
let run t b members =
  let go () =
    let outcomes = attempt t b members in
    Array.mapi (fun i m -> try settle t b m outcomes.(i) with e -> Error e) members
  in
  if Array.length members > 1 then go ()
  else Trace.with_span "refresh" ~attrs:[ ("snapshot", members.(0).snap.snap_name) ] go

(* Refresh every snapshot named in [only] (all of them by default),
   grouping by base table so that all members routed to a method that
   scans the table (full or differential) share one scan; the rest
   (ideal, log-based) refresh as groups of one.  Per-snapshot failures are returned, not raised: one bad
   arm must not abandon the rest of the batch.  Results land by request
   position. *)
let refresh_all ?only t =
  let snaps =
    Array.of_list
      (List.map (snapshot t)
         (match only with Some l -> l | None -> List.sort compare (snapshot_names t)))
  in
  let results = Array.make (Array.length snaps) None in
  let by_base = Hashtbl.create 8 in
  let base_order = ref [] in
  Array.iteri
    (fun i s ->
      let k = key s.base_name in
      match Hashtbl.find_opt by_base k with
      | Some positions -> Hashtbl.replace by_base k (i :: positions)
      | None ->
        base_order := k :: !base_order;
        Hashtbl.replace by_base k [ i ])
    snaps;
  let run_group b positions =
    let members = Array.of_list (List.map (fun i -> member snaps.(i)) positions) in
    let rs = try run t b members with e -> Array.map (fun _ -> Error e) members in
    List.iteri (fun k i -> results.(i) <- Some rs.(k)) positions
  in
  List.iter
    (fun k ->
      let b = (Hashtbl.find t.bases k).base_table in
      let grouped, solo =
        List.partition
          (fun i -> scans_table (choose_method t snaps.(i)))
          (List.rev (Hashtbl.find by_base k))
      in
      if grouped <> [] then run_group b grouped;
      List.iter (fun i -> run_group b [ i ]) solo)
    (List.rev !base_order);
  Array.to_list (Array.mapi (fun i s -> (s.snap_name, Option.get results.(i))) snaps)

(* A solo refresh is [refresh_all] over the one snapshot.  With [group]
   the named snapshot is refreshed together with its base-table siblings
   so they can share the scan; the named snapshot's outcome is this
   call's, the siblings' reports are dropped (use refresh_all to see
   them). *)
let refresh ?(group = false) t name =
  let s = snapshot t name in
  let only = if group then List.sort compare (snapshots_on t s.base_name) else [ s.snap_name ] in
  match List.assoc s.snap_name (refresh_all ~only t) with Ok r -> r | Error e -> raise e

(* Selectivity measurement for a new snapshot.  Small tables get the
   exact single-pass count, unless a population will count the same rows
   anyway ([counted]: then [nan], and the caller takes the population's
   count); above [sample_threshold] entries we draw a fixed-size uniform
   reservoir sample instead of materializing and scanning the whole
   table. *)
let sample_threshold = 10_000
let sample_size = 1_000

let measure_selectivity t b ~counted ~restrict_expr restrict =
  let n = Base_table.count b in
  if n = 0 then Selectivity.heuristic restrict_expr
  else if n <= sample_threshold && counted then Float.nan
  else if n <= sample_threshold then begin
    let hits = ref 0 in
    let ps = Fixup.page_scan () in
    for page = 1 to Base_table.data_pages b do
      Fixup.load_page ps b ~page Fixup.Skip;
      for k = 0 to Fixup.entries ps - 1 do
        if restrict (Fixup.fields ps k) then incr hits
      done
    done;
    float_of_int !hits /. float_of_int n
  end
  else begin
    (* The reservoir holds addresses, drawn from the address index in
       address order (the order, hence the draws, of a table scan); only
       the sampled records are read. *)
    let reservoir = Array.make sample_size Addr.zero in
    let seen = ref 0 in
    Base_table.iter_addrs b (fun addr ->
        if !seen < sample_size then reservoir.(!seen) <- addr
        else begin
          let j = Snapdiff_util.Rng.int t.rng (!seen + 1) in
          if j < sample_size then reservoir.(j) <- addr
        end;
        incr seen);
    let k = min sample_size !seen in
    let hits = ref 0 in
    for i = 0 to k - 1 do
      match Base_table.read_record b reservoir.(i) with
      | Some record -> if restrict (Codec.Fields.of_record record) then incr hits
      | None -> ()
    done;
    float_of_int !hits /. float_of_int k
  end

let check_log_based b = function
  | Log_based when Base_table.wal b = None ->
    raise (Bad_definition "log-based refresh requires a WAL on the base table")
  | _ -> ()

let validate_projection user_schema projection =
  List.iter
    (fun col_name ->
      match Schema.index_of user_schema col_name with
      | None -> raise (Bad_definition (Printf.sprintf "unknown column %s in projection" col_name))
      | Some i ->
        if Schema.is_hidden (Schema.column user_schema i) then
          raise (Bad_definition (Printf.sprintf "hidden column %s in projection" col_name)))
    projection

(* Compile a snapshot definition against its base table: type-check and
   simplify the restriction, validate the projection, build the replica
   with [make_table] over the projected schema, wire the link pair (the
   base site receives the one-time Register), and measure the selectivity
   — or, when [counted] (a population follows), leave it [nan] for the
   caller to set from the population's count.  Nothing is registered in
   the catalog. *)
let compile_definition t ~name ~base_name ~restrict ?projection ~method_ ?link
    ~tail_suppression ~prune ?selectivity ~counted make_table =
  if Hashtbl.mem t.snapshots (key name) then raise (Duplicate_name name);
  let b = base t base_name in
  let user_schema = Base_table.user_schema b in
  (match Typecheck.check_predicate user_schema restrict with
  | Ok () -> ()
  | Error e -> raise (Bad_definition (Format.asprintf "%a" Typecheck.pp_error e)));
  (* "Compile" the restriction: simplify once at definition time. *)
  let restrict = Snapdiff_expr.Simplify.simplify restrict in
  let projection =
    match projection with
    | Some cols ->
      validate_projection user_schema cols;
      cols
    | None -> List.map (fun c -> c.Schema.name) (Schema.columns user_schema)
  in
  let idx = Array.of_list (List.map (Schema.index_of_exn user_schema) projection) in
  let identity = Array.length idx = Schema.arity user_schema
                 && Array.for_all2 ( = ) idx (Array.init (Array.length idx) Fun.id) in
  let project = if identity then Fun.id else fun tuple -> Tuple.project_idx tuple idx in
  let project_cols = if identity then None else Some idx in
  let restrict_fn = Eval.compile user_schema restrict in
  let record_restrict = Eval.compile_record user_schema restrict in
  check_log_based b method_;
  let table = make_table (Schema.project user_schema projection) in
  let link =
    match link with
    | Some l -> l
    | None -> Link.create ~name:(Printf.sprintf "%s->%s" base_name name) ()
  in
  let request_link = Link.create ~name:(Printf.sprintf "%s->%s" name base_name) () in
  (* The base site consumes control messages; it already holds the compiled
     definition, so receipt is just accounted. *)
  Link.attach request_link (fun _ _ -> ());
  Link.attach link (Snapshot_table.apply_bytes table);
  (* CREATE SNAPSHOT ships the definition to the base site once. *)
  Link.send request_link
    (Refresh_msg.encode
       (Refresh_msg.Register { restrict = Expr.to_string restrict; projection }));
  (* Selectivity: measured when data exists (sampled above 10k entries),
     System R heuristics otherwise. *)
  let selectivity =
    match selectivity with
    | Some q -> Float.max 0.0 (Float.min 1.0 q)  (* caller-provided estimate *)
    | None -> measure_selectivity t b ~counted ~restrict_expr:restrict record_restrict
  in
  {
    snap_name = name;
    base_name;
    restrict_expr = restrict;
    restrict = restrict_fn;
    project;
    record_restrict;
    project_cols;
    table;
    link;
    request_link;
    spec = method_;
    tail_suppression;
    prune = (if prune then Some (Differential.Prune_cache.create ()) else None);
    selectivity;
    cursor_seq = 0;
    cursor_lsn = Wal.start_lsn;
    cursor_hold = None;
    mutations_at_refresh = 0;
    next_epoch = 1;
    history = [];
  }

let create_snapshot t ~name ~base:base_name ?(restrict = Expr.ttrue) ?projection
    ?(method_ = Auto) ?link ?(tail_suppression = false) ?(prune = true) ?selectivity
    ?version_retain () =
  let s =
    compile_definition t ~name ~base_name ~restrict ?projection ~method_ ?link
      ~tail_suppression ~prune ?selectivity ~counted:true (fun schema ->
        Snapshot_table.create ?version_retain ~name ~schema ())
  in
  let bst = base_state t base_name in
  (* Change capture must be live before the initial population so that the
     first ideal refresh misses nothing. *)
  let created_capture = method_ = Ideal && bst.capture = None in
  if method_ = Ideal then ignore (ensure_capture t base_name : Change_log.t);
  (* Initial population is always a full transfer (priming a deferred-mode
     base's annotations), committed like any refresh; its commit starts the
     log cursor and the churn count "now". *)
  let report =
    match (run t (base t base_name) [| member ~populate:true s |]).(0) with
    | Ok r -> r
    | Error e | (exception e) ->
      (* The populating transfer failed for good: leave no trace.  The
         snapshot was never registered, so no half-populated table with
         stale cursors survives; a capture subscription opened for it is
         rolled back too. *)
      if created_capture then drop_capture t base_name;
      raise e
  in
  (* A small table's selectivity is the population's own count of the
     qualified rows: the exact pass, without a second read of the pages.
     Nothing reads it before this point. *)
  if Float.is_nan s.selectivity then
    s.selectivity <-
      float_of_int report.data_messages /. float_of_int (Base_table.count (base t base_name));
  (* Register only after the populating transfer has succeeded. *)
  Hashtbl.replace t.snapshots (key name) s;
  (match bst.capture with
  | Some (log, _) -> s.cursor_seq <- Change_log.current_seq log
  | None -> ());
  sync_cursor_hold t s;
  Log.info (fun m ->
      m "created snapshot %s on %s (%s, selectivity %.3f): %d entries shipped"
        name base_name
        (Expr.to_string s.restrict_expr)
        s.selectivity report.data_messages);
  report

(* Adopt a persisted snapshot replica (a file-backed store written by a
   previous process) into the catalog without an initial population: the
   next refresh resumes differentially from the snaptime the store was
   persisted at.  {!Snapshot_table.Corrupt_snapshot} from the integrity
   scan propagates to the caller, like {!Refresh_failed} — a typed,
   per-snapshot failure that leaves the catalog unchanged. *)
let attach_snapshot t ~name ~base:base_name ?(restrict = Expr.ttrue) ?projection
    ?(method_ = Auto) ?link ?(tail_suppression = false) ?(prune = true) ?selectivity
    ?snaptime ?version_retain pool =
  if method_ = Ideal then
    (* Change capture installed now would have missed everything between
       the persisted snaptime and this attach. *)
    raise (Bad_definition "cannot attach a persisted snapshot with the ideal method");
  (* May raise Corrupt_snapshot: nothing has been registered yet. *)
  let s =
    compile_definition t ~name ~base_name ~restrict ?projection ~method_ ?link
      ~tail_suppression ~prune ?selectivity ~counted:false (fun schema ->
        Snapshot_table.on_pool ?snaptime ?version_retain ~name ~schema pool)
  in
  Hashtbl.replace t.snapshots (key name) s;
  sync_cursor_hold t s;
  Log.info (fun m ->
      m "attached persisted snapshot %s on %s (snaptime %d, %d entries)" name base_name
        (Snapshot_table.snaptime s.table) (Snapshot_table.count s.table))

let drop_snapshot t name =
  let s = snapshot t name in
  Hashtbl.remove t.snapshots (key name);
  release_cursor_hold s;
  let bst = base_state t s.base_name in
  match bst.capture with
  | None -> ()
  | Some (log, _) -> (
    (* Change capture only serves Ideal snapshots.  Dropping the last one
       on this base must detach the subscription and free the log, or the
       Change_log grows without bound (nothing would ever truncate it
       again); with Ideal snapshots remaining, reclaim up to the slowest
       surviving cursor in case the dropped one was the laggard. *)
    match min_ideal_cursor t s.base_name with
    | floor when floor = max_int -> drop_capture t s.base_name
    | floor -> Change_log.truncate_below log floor)

(* --- Scheduler hooks ------------------------------------------------------ *)

let report_history ?limit t name =
  let h = (snapshot t name).history in
  match limit with
  | None -> h
  | Some n ->
    if n < 0 then invalid_arg "Manager.report_history: negative limit";
    List.filteri (fun i _ -> i < n) h

let set_method t name spec =
  let s = snapshot t name in
  check_log_based (base t s.base_name) spec;
  (match spec with
  | Ideal when s.spec <> Ideal ->
    (* Capture installed now would have missed every change since the last
       refresh, so the first ideal stream would silently lose them. *)
    raise (Bad_definition "cannot switch a snapshot to the ideal method after creation")
  | _ -> ());
  s.spec <- spec;
  sync_cursor_hold t s
