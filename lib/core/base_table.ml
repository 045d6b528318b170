open Snapdiff_storage
open Snapdiff_txn
module Change_log = Snapdiff_changelog.Change_log
module Int_btree = Snapdiff_index.Btree.Make (Int)
module Metrics = Snapdiff_obs.Metrics

let m_inserts = Metrics.counter Metrics.global "basetable.inserts"
let m_updates = Metrics.counter Metrics.global "basetable.updates"
let m_deletes = Metrics.counter Metrics.global "basetable.deletes"

type mode = Eager | Deferred

type subscription = int

type page_summary = {
  sum_live : int;
  sum_first_live : Addr.t;
  sum_last_live : Addr.t;
  sum_first_prev : Addr.t;
  sum_max_ts : Clock.ts;
  sum_token : int;
}

(* Tokens are drawn from a process-wide counter so a summary rebuilt after
   an [on_pool] restart can never collide with a token some refresher
   cached against the previous table instance.  Atomic so refreshes of
   different tables running on different domains still draw unique
   tokens. *)
let token_counter = Atomic.make 0

type t = {
  table_name : string;
  table_mode : mode;
  table_clock : Clock.t;
  user : Schema.t;
  stored : Schema.t;
  heap : Heap.t;
  live : unit Int_btree.t;  (* live addresses, for successor/predecessor *)
  summaries : (int, page_summary) Hashtbl.t;  (* data page -> exact summary *)
  mutable observers : (subscription * (Change_log.change -> unit)) list;
  mutable next_sub : subscription;
  wal : Snapdiff_wal.Wal.t option;
  mutable next_txn : int;
  mutable mutation_count : int;
}

let of_heap ~mode ~wal ~name ~clock ~user_schema heap =
  let live = Int_btree.create () in
  Heap.iter heap (fun addr _ -> Int_btree.insert live addr ());
  {
    table_name = name;
    table_mode = mode;
    table_clock = clock;
    user = user_schema;
    stored = Heap.schema heap;
    heap;
    live;
    (* Summaries are in-memory acceleration state: a table adopted from an
       existing store starts with none and the first scan rebuilds them. *)
    summaries = Hashtbl.create 64;
    observers = [];
    next_sub = 1;
    wal;
    next_txn = 1;
    mutation_count = 0;
  }

let create ?(mode = Deferred) ?(page_size = 4096) ?(frames = 128) ?wal ~name ~clock
    user_schema =
  let stored = Annotations.extend_schema user_schema in
  of_heap ~mode ~wal ~name ~clock ~user_schema (Heap.create ~page_size ~frames stored)

let on_pool ?(mode = Deferred) ?wal ~name ~clock pool user_schema =
  let stored = Annotations.extend_schema user_schema in
  of_heap ~mode ~wal ~name ~clock ~user_schema (Heap.on_pool pool stored)

let flush t = Heap.flush t.heap

let pool t = Heap.pool t.heap

let name t = t.table_name
let mode t = t.table_mode
let wal t = t.wal
let clock t = t.table_clock
let user_schema t = t.user
let count t = Heap.count t.heap
let mutations t = t.mutation_count

let subscribe t f =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  t.observers <- t.observers @ [ (id, f) ];
  id

let unsubscribe t id = t.observers <- List.filter (fun (i, _) -> i <> id) t.observers

let notify t change = List.iter (fun (_, f) -> f change) t.observers

(* Each user operation is its own committed transaction in the WAL (the
   SQL layer's autocommit); annotation maintenance writes are not logged.

   Durability contract: on a file-backed group-committed WAL the Commit
   append below returns {e before} its fsync — the commit becomes durable
   only when its group-commit window fills (or on the next [Wal.sync]),
   so up to window-1 acknowledged operations can vanish in a crash.  A
   caller needing an operation on stable storage before acting on it
   must call [Wal.sync] (or wait for [Wal.durable_end_lsn] to pass the
   commit's LSN). *)
let log_op t mk =
  match t.wal with
  | None -> ()
  | Some wal ->
    let txn = t.next_txn in
    t.next_txn <- txn + 1;
    ignore (Snapdiff_wal.Wal.append wal (Snapdiff_wal.Record.Begin { txn }));
    ignore (Snapdiff_wal.Wal.append wal (mk txn));
    ignore (Snapdiff_wal.Wal.append wal (Snapdiff_wal.Record.Commit { txn }))

let stored_of t addr =
  match Heap.get t.heap addr with
  | Some tuple -> tuple
  | None -> raise Not_found

let get t addr =
  match Heap.get t.heap addr with
  | Some tuple -> Some (Annotations.user_part tuple)
  | None -> None

let get_annotations t addr =
  match Heap.get t.heap addr with
  | Some tuple -> Some (snd (Annotations.split tuple))
  | None -> None

let successor t addr = Option.map fst (Int_btree.find_first t.live ~lo:(addr + 1))

let predecessor t addr =
  if addr <= 0 then None else Option.map fst (Int_btree.find_last t.live ~hi:(addr - 1))

(* ---- page summaries ------------------------------------------------ *)

let invalidate_summary t addr = Hashtbl.remove t.summaries (Addr.page addr)

let data_pages t = Heap.data_pages t.heap

let page_summary t page = Hashtbl.find_opt t.summaries page

let record_page_summary t ~page ~live ~first_live ~last_live ~first_prev ~max_ts =
  match Hashtbl.find_opt t.summaries page with
  | Some s
    when s.sum_live = live && s.sum_first_live = first_live && s.sum_last_live = last_live
         && s.sum_first_prev = first_prev && s.sum_max_ts = max_ts ->
    (* Unchanged content keeps its token, so other snapshots' qualification
       caches against this page stay valid. *)
    s.sum_token
  | _ ->
    let token = 1 + Atomic.fetch_and_add token_counter 1 in
    Hashtbl.replace t.summaries page
      {
        sum_live = live;
        sum_first_live = first_live;
        sum_last_live = last_live;
        sum_first_prev = first_prev;
        sum_max_ts = max_ts;
        sum_token = token;
      };
    token

let load_page t ~arena ~page f =
  Heap.load_page t.heap ~arena ~page (fun p ->
      let wrote = f p in
      if wrote then Hashtbl.remove t.summaries page;
      wrote)

let iter_addrs t f = Int_btree.iter t.live (fun addr () -> f addr)

let read_record t addr = Heap.read_record t.heap addr

(* -------------------------------------------------------------------- *)

let set_stored t addr tuple =
  invalidate_summary t addr;
  Heap.update t.heap addr tuple

let set_annotations t addr stored ~prev ~ts =
  if Annotations.patchable stored then begin
    invalidate_summary t addr;
    Heap.patch_tail t.heap addr (Annotations.encode_tail ~prev ~ts);
    Annotations.tail_bytes
  end
  else begin
    let row = Annotations.with_raw stored ~prev ~ts in
    set_stored t addr row;
    Tuple.encoded_size row
  end

let insert t user_tuple =
  (match Schema.validate_tuple t.user user_tuple with
  | Ok () -> ()
  | Error e -> raise (Heap.Tuple_error e));
  let row = Annotations.annotate user_tuple Annotations.nulls in
  let addr = Heap.insert t.heap row in
  invalidate_summary t addr;
  (match t.table_mode with
  | Deferred ->
    (* "Insert operations will set the PrevAddr and TimeStamp fields to
       NULL" — already done. *)
    ()
  | Eager ->
    (* "The PrevAddr of the new entry must be set to the value of the
       PrevAddr from the next entry in the base table, and the PrevAddr in
       the next entry must be set to the address of the new entry." *)
    let now = Clock.tick t.table_clock in
    let prev =
      match successor t addr with
      | Some succ_addr ->
        let succ = stored_of t succ_addr in
        let succ_prev = Annotations.raw_prev succ in
        let inherited =
          if succ_prev <> Annotations.null then succ_prev
          else Option.value (predecessor t addr) ~default:Addr.zero
        in
        ignore
          (set_annotations t succ_addr succ ~prev:addr ~ts:(Annotations.raw_ts succ) : int);
        inherited
      | None -> Option.value (predecessor t addr) ~default:Addr.zero
    in
    ignore (set_annotations t addr row ~prev ~ts:now : int));
  Int_btree.insert t.live addr ();
  t.mutation_count <- t.mutation_count + 1;
  Metrics.incr m_inserts;
  notify t (Change_log.Insert (addr, user_tuple));
  log_op t (fun txn ->
      Snapdiff_wal.Record.Insert
        { txn; table = t.table_name; addr; tuple = Option.get (Heap.get t.heap addr) });
  addr

let update t addr user_tuple =
  (match Schema.validate_tuple t.user user_tuple with
  | Ok () -> ()
  | Error e -> raise (Heap.Tuple_error e));
  let old_stored = stored_of t addr in
  let old_user, old_ann = Annotations.split old_stored in
  let new_ann =
    match t.table_mode with
    | Deferred ->
      (* "Update operations will simply set the TimeStamp field to NULL." *)
      { old_ann with Annotations.timestamp = None }
    | Eager -> { old_ann with Annotations.timestamp = Some (Clock.tick t.table_clock) }
  in
  invalidate_summary t addr;
  Heap.update t.heap addr (Annotations.annotate user_tuple new_ann);
  t.mutation_count <- t.mutation_count + 1;
  Metrics.incr m_updates;
  notify t (Change_log.Update (addr, old_user, user_tuple));
  log_op t (fun txn ->
      Snapdiff_wal.Record.Update
        {
          txn;
          table = t.table_name;
          addr;
          old_tuple = old_stored;
          new_tuple = Option.get (Heap.get t.heap addr);
        })

let delete t addr =
  let old_stored = stored_of t addr in
  let old_user = Annotations.user_part old_stored in
  invalidate_summary t addr;
  Heap.delete t.heap addr;
  ignore (Int_btree.remove t.live addr : bool);
  (match t.table_mode with
  | Deferred ->
    (* "Delete operations on the base table will be unaffected by the
       snapshots - the base table entry is simply deleted." *)
    ()
  | Eager -> (
    (* "The PrevAddr and TimeStamp fields of the succeeding base table
       entry must be updated with the PrevAddr from the deleted entry and
       the current time." *)
    match successor t addr with
    | Some succ_addr ->
      let now = Clock.tick t.table_clock in
      ignore
        (set_annotations t succ_addr (stored_of t succ_addr)
           ~prev:(Annotations.raw_prev old_stored) ~ts:now
          : int)
    | None ->
      (* Deletion at the end of the table leaves no annotation anywhere;
         the refresh algorithm's unconditional tail message covers it. *)
      ()));
  t.mutation_count <- t.mutation_count + 1;
  Metrics.incr m_deletes;
  notify t (Change_log.Delete (addr, old_user));
  log_op t (fun txn ->
      Snapdiff_wal.Record.Delete
        { txn; table = t.table_name; addr; old_tuple = old_stored })

let to_user_list t =
  List.map (fun (addr, tuple) -> (addr, Annotations.user_part tuple)) (Heap.to_list t.heap)

let iter_stored t f = Heap.iter t.heap f

let last_addr t = Option.value (Heap.last_addr t.heap) ~default:Addr.zero

let lock_resource t = Lock.Table t.table_name

let page_lock_resource t page = Lock.Page (t.table_name, page)
