open Snapdiff_storage
open Snapdiff_txn
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace
module Version_store = Snapdiff_mvcc.Version_store

exception Corrupt_snapshot of string

let m_stream_commits = Metrics.counter Metrics.global "snapshot.stream_commits"
let m_stream_aborts = Metrics.counter Metrics.global "snapshot.stream_aborts"

module Value_btree = Snapdiff_index.Btree.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

let baseaddr_col = "__baseaddr"

(* A secondary index: column value -> set of BaseAddrs holding it. *)
type secondary = {
  sec_column : int;  (* position in the user schema *)
  entries : (Addr.t, unit) Hashtbl.t Value_btree.t;
}

(* An open epoch: the page table's open commit, into which each frame
   replays as it arrives.  Its Snaptime publishes the root; any fault
   aborts it back to the root sealed at its first frame. *)
type epoch = {
  epoch : int;
  mutable next_seq : int;
  mutable decode_us : float;  (* checksum and decode of its frames, rows left as bytes *)
  freeze_us : float;  (* the seal at its first frame *)
  mutable replay_us : float;  (* read, row check and replay of its frames *)
  mutable msgs : int;  (* messages replayed *)
  searches0 : int;  (* the page table's search count at its first frame *)
}

type stream =
  | Idle
  | Open of epoch
  | Dropping of int  (* an aborted epoch, [-1] if unknown: its frames go nowhere *)

type commit_phases = {
  decode_us : float;
  freeze_us : float;
  replay_us : float;
  publish_us : float;
  replay_msgs : int;
  replay_searches : int;
}

let no_phases =
  { decode_us = 0.0; freeze_us = 0.0; replay_us = 0.0; publish_us = 0.0; replay_msgs = 0;
    replay_searches = 0 }

type t = {
  snap_name : string;
  user : Schema.t;
  (* An adopted snapshot's persisted records: writes an image over them. *)
  store : (Version_store.image -> unit) option;
  secondaries : (string, secondary) Hashtbl.t;  (* lowercased column name *)
  mutable time : Clock.ts;
  mutable stream : stream;
  mutable commits : int;
  mutable aborts : int;
  mutable last_abort : string option;
  mutable abort_epoch : int;  (* the epoch [last_abort] aborted, [-1] if unknown *)
  mutable committed_epoch : int;  (* -1 before any framed commit *)
  mutable last_phases : commit_phases;  (* of the last framed commit *)
  reader : Refresh_msg.reader;  (* over the frame being received *)
  versions : Version_store.t;  (* the rows, and the retained epochs *)
}

let version_page_span = 64  (* BaseAddrs per page *)

let make ?(version_retain = 1) ~name ~schema ~time store =
  {
    snap_name = name;
    user = schema;
    store;
    secondaries = Hashtbl.create 4;
    time;
    stream = Idle;
    commits = 0;
    aborts = 0;
    last_abort = None;
    abort_epoch = -1;
    committed_epoch = -1;
    last_phases = no_phases;
    reader = Refresh_msg.reader ();
    versions = Version_store.create ~retain:version_retain ~page_span:version_page_span ();
  }

let create ?version_retain ~name ~schema () =
  make ?version_retain ~name ~schema ~time:Clock.never None

(* The persisted form: one heap record per row, the user columns plus
   [__baseaddr].  Adoption puts each record's user columns into the page
   table as a row of bytes; a record whose [__baseaddr] is not an int,
   or repeats one already adopted, is corruption.  A write inserts the new image's records and makes them
   durable before it deletes the old ones, so a write cut short leaves
   every row of the old image or the new in the store (most often both,
   which adoption reports as duplicates), never neither. *)
let on_pool ?(snaptime = Clock.never) ?version_retain ~name ~schema pool =
  let arity = Schema.arity schema in
  let heap =
    Heap.on_pool pool (Schema.extend schema [ Schema.col ~nullable:false baseaddr_col Value.Tint ])
  in
  let persisted = ref [] in
  let write image =
    let old = !persisted in
    persisted :=
      Version_store.fold image ~init:[] ~f:(fun rids a row ->
          Heap.insert heap (Array.append (Row.to_tuple row) [| Value.int a |]) :: rids);
    Heap.flush heap;
    List.iter (Heap.delete heap) old;
    Heap.flush heap
  in
  let t = make ?version_retain ~name ~schema ~time:snaptime (Some write) in
  let corrupt fmt =
    Printf.ksprintf (fun s -> raise (Corrupt_snapshot (Printf.sprintf "snapshot %s: %s" name s))) fmt
  in
  Heap.iter heap (fun rid stored ->
      persisted := rid :: !persisted;
      match stored.(arity) with
      | Value.Int b ->
        let a = Int64.to_int b in
        if Version_store.put t.versions a (Row.of_tuple (Array.sub stored 0 arity)) <> None then
          corrupt "duplicate %s %d in persisted store" baseaddr_col a
      | _ -> corrupt "corrupt %s column in persisted store" baseaddr_col);
  t

(* The open root, which the Figure 4 replay edits and the secondary
   indexes follow; and the last committed image, which every public read
   sees.  They differ only while an epoch is open. *)
let head t = Version_store.head t.versions
let image t = Version_store.committed t.versions

let flush t = Option.iter (fun write -> write (image t)) t.store

let name t = t.snap_name
let schema t = t.user
let snaptime t = t.time
let count t = Version_store.count (image t)

(* Secondary index maintenance: a row's key column is the one field
   decoded. *)
let index_row sec base_addr row =
  let key = Row.field row sec.sec_column in
  let set =
    match Value_btree.find sec.entries key with
    | Some set -> set
    | None ->
      let set = Hashtbl.create 4 in
      Value_btree.insert sec.entries key set;
      set
  in
  Hashtbl.replace set base_addr ()

let sec_add t base_addr row = Hashtbl.iter (fun _ sec -> index_row sec base_addr row) t.secondaries

(* Rebuild one index from the open root. *)
let backfill t sec =
  Value_btree.clear sec.entries;
  Version_store.iter (head t) (index_row sec)

let sec_remove t base_addr row =
  Hashtbl.iter
    (fun _ sec ->
      let key = Row.field row sec.sec_column in
      match Value_btree.find sec.entries key with
      | Some set ->
        Hashtbl.remove set base_addr;
        if Hashtbl.length set = 0 then ignore (Value_btree.remove sec.entries key : bool)
      | None -> ())
    t.secondaries

(* Every mutation is one page-table edit; the secondary indexes, if
   any, follow from the old row the edit returns.  Rows arrive checked by
   [replay]. *)
let put t base_addr row =
  let old = Version_store.put t.versions base_addr row in
  if Hashtbl.length t.secondaries > 0 then begin
    Option.iter (sec_remove t base_addr) old;
    sec_add t base_addr row
  end

let delete t base_addr =
  let old = Version_store.delete t.versions base_addr in
  if Hashtbl.length t.secondaries > 0 then Option.iter (sec_remove t base_addr) old

(* Delete every entry with [lo <= BaseAddr <= hi]: the merge step of
   Figure 4.  Each successor probe at or below [hi] is a gap victim.  An
   empty range — an entry whose predecessor qualified, the common case
   in a dense differential stream — costs nothing, and a gap with no
   victim costs the one probe, which the page table's cursor serves from
   where the last edit landed.  The probe returns [max_int] for "none":
   under [hi = max_int] that is one [delete] of whatever row is there. *)
let rec drop_range t ~lo ~hi =
  if lo <= hi then begin
    let a = Version_store.succ_head t.versions lo in
    if a <= hi then begin
      delete t a;
      if a < hi then drop_range t ~lo:(a + 1) ~hi
    end
  end

let clear t =
  Version_store.clear t.versions;
  Hashtbl.iter (fun _ sec -> Value_btree.clear sec.entries) t.secondaries

exception Malformed of string

(* A row the snapshot cannot hold (wrong arity, wrong type, NULL in a NOT
   NULL column) raises [Malformed], read from its tag bytes before the
   message changes anything. *)
let check t row =
  if Row.arity row <> Schema.arity t.user then
    raise (Malformed "tuple dimensions do not match snapshot schema");
  match Row.validate t.user row with Ok () -> () | Error e -> raise (Malformed e)

(* Figure 4 for one message.  Each row is checked here and stored as it
   came: the page table holds the bytes, and a read decodes them. *)
let replay t (msg : Refresh_msg.t) =
  match msg with
  | Entry { addr; prev_qual; row } ->
    check t row;
    (* Everything strictly between the previous qualified entry and this
       one is gone from the base table's qualified set. *)
    drop_range t ~lo:(prev_qual + 1) ~hi:(addr - 1);
    put t addr row
  | Tail { last_qual } -> drop_range t ~lo:(last_qual + 1) ~hi:max_int
  | Region { lo; hi } -> drop_range t ~lo ~hi
  | Upsert { addr; row } ->
    check t row;
    put t addr row
  | Remove { addr } -> delete t addr
  | Clear -> clear t
  | Snaptime ts -> t.time <- ts
  | Register _ | Request _ ->
    (* Control messages flow the other way (snapshot -> base); receiving
       one here is harmless and means a loopback link. *)
    ()

(* ------------------------------------------------------------------ *)
(* Framed streams, applied as they arrive. *)

(* Abort the open epoch: the page table returns to the root sealed at its
   start, the indexes are rebuilt from it, and the epoch's later frames
   are dropped.  Bytes that are no frame at all may be a frame whose
   header was garbled, so with no epoch open the next frame past
   sequence 0 is dropped as the garbled one's.  The reason is recorded
   with the epoch it hit: the open one, else [heard] (what a corrupt
   frame's header claims), else unknown until that next frame. *)
let abort ?(heard = -1) t reason =
  match t.stream with
  | Dropping _ -> ()
  | (Idle | Open _) as s ->
    t.stream <-
      Dropping
        (match s with
        | Open o ->
          Version_store.abort_commit t.versions;
          Hashtbl.iter (fun _ sec -> backfill t sec) t.secondaries;
          o.epoch
        | _ -> -1);
    t.aborts <- t.aborts + 1;
    t.last_abort <- Some reason;
    t.abort_epoch <- (match s with Open o -> o.epoch | _ -> heard);
    Metrics.incr m_stream_aborts;
    Trace.event "refresh.discard" ~attrs:[ ("snapshot", t.snap_name); ("reason", reason) ]

let abort_stream t ~reason =
  (match t.stream with Open _ -> abort t reason | Idle | Dropping _ -> ());
  t.stream <- Idle

let commit t o ts =
  let t0 = Trace.now_us () in
  Version_store.end_commit t.versions ~epoch:o.epoch ~snaptime:ts;
  t.stream <- Idle;
  t.last_phases <-
    { decode_us = o.decode_us; freeze_us = o.freeze_us; replay_us = o.replay_us;
      publish_us = Trace.now_us () -. t0; replay_msgs = o.msgs;
      replay_searches = Version_store.searches t.versions - o.searches0 };
  t.commits <- t.commits + 1;
  t.committed_epoch <- o.epoch;
  Metrics.incr m_stream_commits

let rec replay_frame t o =
  match Refresh_msg.next t.reader with
  | Some msg ->
    replay t msg;
    o.msgs <- o.msgs + 1;
    replay_frame t o
  | None -> ()

(* The frame [apply_bytes] opened; [decode_us] is the time it spent on
   its header and checksum. *)
let rec receive t ~decode_us ({ Refresh_msg.epoch; seq; marker } as frame) =
  match t.stream with
  | Dropping d when d = epoch || (d = -1 && seq > 0) ->
    (* A frame past sequence 0 names the epoch the unknown abort hit. *)
    if d = -1 && t.abort_epoch = -1 then t.abort_epoch <- epoch;
    t.stream <- (if marker then Idle else Dropping epoch)
  | Open o when o.epoch <> epoch ->
    (* The open epoch was truncated before its commit marker. *)
    abort t (Printf.sprintf "epoch %d truncated (superseded by epoch %d)" o.epoch epoch);
    receive t ~decode_us frame
  | Idle | Dropping _ ->
    let t0 = Trace.now_us () in
    Version_store.begin_commit t.versions;
    t.stream <-
      Open
        { epoch; next_seq = 0; decode_us = 0.0; freeze_us = Trace.now_us () -. t0; replay_us = 0.0;
          msgs = 0; searches0 = Version_store.searches t.versions };
    receive t ~decode_us frame
  | Open o -> (
    let t0 = Trace.now_us () in
    o.decode_us <- o.decode_us +. decode_us;
    if seq <> o.next_seq then begin
      abort t (Printf.sprintf "sequence gap in epoch %d: expected %d, got %d" epoch o.next_seq seq);
      receive t ~decode_us:0.0 frame
    end
    else
      (* A message that fails part-way through aborts the epoch, whose
         sealed root discards what the frame replayed before it. *)
      match
        o.next_seq <- seq + 1;
        (* The span's attributes are built only when tracing is on. *)
        if Trace.enabled () then
          Trace.with_span "refresh.apply"
            ~attrs:[ ("snapshot", t.snap_name); ("epoch", string_of_int epoch) ]
            (fun () -> replay_frame t o)
        else replay_frame t o
      with
      | () ->
        o.replay_us <- o.replay_us +. (Trace.now_us () -. t0);
        if marker then commit t o t.time
      | exception Malformed e -> abort t (Printf.sprintf "malformed frame in epoch %d: %s" epoch e)
      | exception Refresh_msg.Corrupt reason -> abort t ("corrupt frame: " ^ reason))

(* A raw message is the same replay outside any epoch; it aborts an open
   one first. *)
let apply t msg =
  (match t.stream with
  | Open o -> abort t (Printf.sprintf "raw message inside epoch %d" o.epoch)
  | Idle | Dropping _ -> ());
  try replay t msg with Malformed e -> invalid_arg ("Snapshot_table: " ^ e)

let apply_bytes t b len =
  let t0 = Trace.now_us () in
  match Refresh_msg.open_frame t.reader b len with
  | Some frame -> receive t ~decode_us:(Trace.now_us () -. t0) frame
  | exception Refresh_msg.Corrupt reason ->
    abort t ~heard:(Refresh_msg.frame_epoch b len) ("corrupt frame: " ^ reason)
  | None -> (
    match Refresh_msg.decode ~len b with
    | msg when t.stream = Idle -> (
      try replay t msg with Malformed e -> abort t ("malformed message: " ^ e))
    | _ -> abort t "unframed bytes inside a framed stream"
    | exception Failure reason -> abort t ("undecodable message: " ^ reason))

let epochs_committed t = t.commits
let epochs_aborted t = t.aborts
let last_abort t = t.last_abort

let abort_reason t ~epoch =
  match t.last_abort with
  | Some reason when t.abort_epoch = epoch -> reason
  | _ -> Printf.sprintf "epoch %d did not reach its Snaptime" epoch

let last_committed_epoch t = t.committed_epoch
let last_commit_phases t = t.last_phases
let open_epoch t = match t.stream with Open o -> Some o.epoch | Idle | Dropping _ -> None

(* The page table holds rows as bytes; every public read decodes the rows
   it hands out, here at the edge. *)
let find img addr = Option.map Row.to_tuple (Version_store.find img addr)

let fold_image img ~init ~f =
  Version_store.fold img ~init ~f:(fun acc a row -> f acc a (Row.to_tuple row))

let get t base_addr = find (image t) base_addr

(* A traversal with no result list: the hot read paths — fleet readers,
   the bench, and [tuples] below — go through it instead of
   materializing [contents]' O(n) assoc list per read. *)
let fold t ~init ~f = fold_image (image t) ~init ~f

let contents t =
  List.rev (fold t ~init:[] ~f:(fun acc base_addr values -> (base_addr, values) :: acc))

let tuples t = List.rev (fold t ~init:[] ~f:(fun acc _ values -> values :: acc))

(* ------------------------------------------------------------------ *)
(* Versioned reads: transactions pinned to a retained refresh epoch. *)

type read_txn = { rt_table : t; rt_txn : Version_store.txn }

let version_retain t = Version_store.retain t.versions
let versions t = Version_store.versions t.versions
let holders t = Version_store.holders t.versions
let zombie_count t = Version_store.zombie_count t.versions

let pin_holder t holder = Option.value holder ~default:t.snap_name

let read_txn ?epoch ?holder t =
  Option.map
    (fun tx -> { rt_table = t; rt_txn = tx })
    (Version_store.pin ?epoch ~holder:(pin_holder t holder) t.versions)

let read_txn_exn ?epoch ?holder t =
  { rt_table = t; rt_txn = Version_store.pin_exn ?epoch ~holder:(pin_holder t holder) t.versions }

let release_txn rt = Version_store.release rt.rt_txn

let vacuum ?older_than ?dry_run t = Version_store.vacuum ?older_than ?dry_run t.versions
let txn_pinned rt = Version_store.txn_pinned rt.rt_txn
let txn_epoch rt = Version_store.txn_epoch rt.rt_txn
let txn_snaptime rt = Version_store.txn_snaptime rt.rt_txn
let txn_image rt = Version_store.txn_image rt.rt_txn
let txn_get rt addr = find (txn_image rt) addr
let txn_count rt = Version_store.count (txn_image rt)
let txn_iter rt f = Version_store.iter (txn_image rt) (fun a row -> f a (Row.to_tuple row))
let txn_fold rt ~init ~f = fold_image (txn_image rt) ~init ~f

let txn_contents rt =
  List.rev (txn_fold rt ~init:[] ~f:(fun acc addr values -> (addr, values) :: acc))

(* The ascending addresses of [img]'s rows whose column [i] passes [keep]:
   an index-free scan that decodes that column only. *)
let scan_matching img i keep =
  List.rev
    (Version_store.fold img ~init:[] ~f:(fun acc addr row ->
         if keep (Row.field row i) then addr :: acc else acc))

let txn_lookup rt ~column value =
  (* Secondary indexes track only the open root; at a pinned version the
     lookup is an index-free scan of the version's pages. *)
  match Schema.index_of rt.rt_table.user column with
  | None -> invalid_arg (Printf.sprintf "Snapshot_table.txn_lookup: unknown column %s" column)
  | Some i -> scan_matching (txn_image rt) i (Value.equal value)

let create_index t ~column =
  match Schema.index_of t.user column with
  | None -> invalid_arg (Printf.sprintf "Snapshot_table.create_index: unknown column %s" column)
  | Some sec_column ->
    let k = String.lowercase_ascii column in
    if not (Hashtbl.mem t.secondaries k) then begin
      let sec = { sec_column; entries = Value_btree.create () } in
      backfill t sec;
      Hashtbl.replace t.secondaries k sec
    end

let indexed_columns t =
  Hashtbl.fold
    (fun _ sec acc -> (Schema.column t.user sec.sec_column).Schema.name :: acc)
    t.secondaries []
  |> List.sort compare

let has_index t ~column = Hashtbl.mem t.secondaries (String.lowercase_ascii column)

let addrs_of_set set = Hashtbl.fold (fun addr () acc -> addr :: acc) set []

(* The addresses whose [column] lies in [lo..hi], ascending.  While an
   epoch is open the index follows its replay, so the committed image is
   scanned instead. *)
let indexed fn t ~column ?lo ?hi () =
  match Hashtbl.find_opt t.secondaries (String.lowercase_ascii column) with
  | None -> invalid_arg (Printf.sprintf "Snapshot_table.%s: no index on %s" fn column)
  | Some sec when open_epoch t = None ->
    let acc = ref [] in
    Value_btree.iter_range sec.entries ?lo ?hi (fun _ set -> acc := addrs_of_set set @ !acc);
    List.sort Addr.compare !acc
  | Some sec ->
    let within b ok v = match b with Some b -> ok (Value.compare v b) | None -> true in
    scan_matching (image t) sec.sec_column (fun v ->
        within lo (fun c -> c >= 0) v && within hi (fun c -> c <= 0) v)

let lookup t ~column value = indexed "lookup" t ~column ~lo:value ~hi:value ()
let lookup_range = indexed "lookup_range"

let high_water t = Option.value (Version_store.last (image t)) ~default:Addr.zero

(* The page table's own layout check, then each secondary index against
   a scan of the open root it follows: every row is indexed under its
   value, and the index holds nothing else. *)
let validate t =
  match Version_store.validate t.versions with
  | Error e -> Error e
  | Ok () -> (
    let exception Bad of string in
    let check _ sec =
      let name = (Schema.column t.user sec.sec_column).Schema.name in
      let held = Value_btree.fold sec.entries ~init:0 ~f:(fun n _ set -> n + Hashtbl.length set) in
      let rows = Version_store.count (head t) in
      if held <> rows then
        raise (Bad (Printf.sprintf "index on %s holds %d entries, the table %d rows" name held rows));
      Version_store.iter (head t) (fun a row ->
          match Value_btree.find sec.entries (Row.field row sec.sec_column) with
          | Some set when Hashtbl.mem set a -> ()
          | _ -> raise (Bad (Printf.sprintf "index on %s misses row %d" name a)))
    in
    match Hashtbl.iter check t.secondaries with () -> Ok () | exception Bad e -> Error e)
