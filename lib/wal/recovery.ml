open Snapdiff_storage

let committed_txns log from =
  let set = Hashtbl.create 64 in
  Wal.iter_from log from (fun _ r ->
      match r with
      | Record.Commit { txn } -> Hashtbl.replace set txn ()
      | _ -> ());
  set

(* Physical redo must be idempotent: the starting image may already
   contain the effect of any retained record.  A sharp checkpoint image
   never does, but a {e fuzzy} checkpoint flushes pages while updaters
   run, so a page written late in the pass can carry changes logged after
   the checkpoint's begin LSN (which is where retention is truncated).
   Each operation therefore re-states the address's post-state rather
   than assuming its pre-state: Insert/Update upsert, Delete tolerates an
   already-missing entry. *)
let redo log resolve =
  let from = Wal.oldest_retained log in
  let committed = committed_txns log from in
  let is_committed txn = Hashtbl.mem committed txn in
  Wal.iter_from log from (fun _ r ->
      let apply table f =
        match resolve table with Some heap -> f heap | None -> ()
      in
      let upsert heap addr tuple =
        if Heap.mem heap addr then Heap.update heap addr tuple
        else Heap.insert_at heap addr tuple
      in
      match r with
      | Record.Insert { txn; table; addr; tuple } when is_committed txn ->
        apply table (fun heap -> upsert heap addr tuple)
      | Record.Delete { txn; table; addr; _ } when is_committed txn ->
        apply table (fun heap -> if Heap.mem heap addr then Heap.delete heap addr)
      | Record.Update { txn; table; addr; new_tuple; _ } when is_committed txn ->
        apply table (fun heap -> upsert heap addr new_tuple)
      | Record.Insert _ | Record.Delete _ | Record.Update _
      | Record.Begin _ | Record.Commit _ | Record.Abort _ | Record.Checkpoint _
      | Record.Begin_checkpoint _ | Record.End_checkpoint _ ->
        ())

type net = {
  before : Tuple.t option;
  after : Tuple.t option;
}

type scan_stats = {
  records_scanned : int;
  bytes_scanned : int;
  relevant : int;
}

let net_changes ?(keep_unchanged = false) log ~table ~since =
  (* [since] may predate [oldest_retained] once the log has been truncated
     (or exceed [end_lsn] on a stale caller); clamp to the range that is
     actually scannable so iteration succeeds and [bytes_scanned] reports
     the bytes really read, not a negative or inflated figure. *)
  let from = min (max since (Wal.oldest_retained log)) (Wal.end_lsn log) in
  let committed = committed_txns log from in
  let is_committed txn = Hashtbl.mem committed txn in
  let states : (Addr.t, net) Hashtbl.t = Hashtbl.create 256 in
  let records = ref 0 in
  let relevant = ref 0 in
  (* [before] is pinned at first sight of the address; [after] tracks the
     latest committed state. *)
  let step addr old_v new_v =
    incr relevant;
    match Hashtbl.find_opt states addr with
    | None -> Hashtbl.replace states addr { before = old_v; after = new_v }
    | Some st -> Hashtbl.replace states addr { st with after = new_v }
  in
  Wal.iter_from log from (fun _ r ->
      incr records;
      match r with
      | Record.Insert { txn; table = t; addr; tuple } when t = table && is_committed txn ->
        step addr None (Some tuple)
      | Record.Delete { txn; table = t; addr; old_tuple } when t = table && is_committed txn ->
        step addr (Some old_tuple) None
      | Record.Update { txn; table = t; addr; old_tuple; new_tuple }
        when t = table && is_committed txn ->
        step addr (Some old_tuple) (Some new_tuple)
      | _ -> ());
  let out =
    Hashtbl.fold
      (fun addr st acc ->
        let unchanged =
          match (st.before, st.after) with
          | None, None -> true
          | Some b, Some a -> Tuple.equal b a
          | _ -> false
        in
        if unchanged && not keep_unchanged then acc else (addr, st) :: acc)
      states []
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Addr.compare a b) out in
  let stats =
    {
      records_scanned = !records;
      bytes_scanned = Wal.end_lsn log - from;
      relevant = !relevant;
    }
  in
  (sorted, stats)
