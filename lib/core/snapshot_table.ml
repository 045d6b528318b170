open Snapdiff_storage
open Snapdiff_txn
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace
module Version_store = Snapdiff_mvcc.Version_store
module Lease = Snapdiff_lifecycle.Lease
module Horizon = Snapdiff_lifecycle.Horizon

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

(* An in-flight framed refresh stream.  Messages are staged here and only
   touch the table when the stream's commit marker (Snaptime) arrives with
   no gap, truncation, or corruption; a bad stream is discarded wholesale,
   leaving the previous consistent image intact. *)
type stage = {
  mutable stage_epoch : int;  (* -1 until a well-formed frame names it *)
  mutable expected_seq : int;
  mutable staged : Refresh_msg.t list;  (* newest first *)
  mutable staged_logical : int;  (* protocol messages in [staged], batches unpacked *)
  mutable poison : string option;
  mutable stage_time_us : float;  (* time spent validating and queueing frames *)
  mutable decode_time_us : float;  (* time spent checksumming and decoding frames *)
}

type commit_phases = {
  decode_us : float;
  stage_us : float;
  freeze_us : float;
  replay_us : float;
  publish_us : float;
}

let no_phases =
  { decode_us = 0.0; stage_us = 0.0; freeze_us = 0.0; replay_us = 0.0; publish_us = 0.0 }

type t = {
  snap_name : string;
  user : Schema.t;
  (* An adopted snapshot's persisted records: writes an image over them. *)
  store : (Version_store.image -> unit) option;
  secondaries : (string, secondary) Hashtbl.t;  (* lowercased column name *)
  mutable observers : (Refresh_msg.t -> unit) list;
  mutable time : Clock.ts;
  mutable stage : stage option;
  mutable commits : int;
  mutable aborts : int;
  mutable last_abort : string option;
  mutable committed_epoch : int;  (* -1 before any framed commit *)
  mutable last_phases : commit_phases;  (* of the last framed commit *)
  versions : Version_store.t;  (* the rows, and the retained epochs *)
  horizon : Horizon.t;  (* epoch leases + retention policy for this snapshot *)
}

let version_page_span = 64  (* BaseAddrs per page *)

(* The horizon's veto on version reclamation: an unpinned version stays
   as long as a live lease names an epoch at or below its own, or the
   retention policy's time window (against the snapshot's current
   SnapTime) has not yet passed it.  Runs with the version-store lock
   held; touches only the horizon (its own mutex) and [t.time]. *)
let reclaim_guard t ~epoch ~snaptime =
  (match Horizon.epoch_floor t.horizon with
  | Some floor -> epoch < floor
  | None -> true)
  &&
  match (Horizon.policy t.horizon).Horizon.retain_duration with
  | Some d -> snaptime + d < t.time
  | None -> true

let make ?version_retain ?retain_duration ~name ~schema ~time store =
  let retain = Option.value version_retain ~default:1 in
  let t =
    {
      snap_name = name;
      user = schema;
      store;
      secondaries = Hashtbl.create 4;
      observers = [];
      time;
      stage = None;
      commits = 0;
      aborts = 0;
      last_abort = None;
      committed_epoch = -1;
      last_phases = no_phases;
      versions = Version_store.create ~retain ~page_span:version_page_span ();
      horizon =
        Horizon.create
          ~policy:{ Horizon.retain_epochs = max 1 retain; retain_duration }
          ();
    }
  in
  (* Wire the guard after construction (the closure needs the record). *)
  Version_store.set_reclaim_guard t.versions (fun ~epoch ~snaptime ->
      reclaim_guard t ~epoch ~snaptime);
  t

let create ?version_retain ?retain_duration ~name ~schema () =
  make ?version_retain ?retain_duration ~name ~schema ~time:Clock.never None

(* The persisted form: one heap record per row, the user columns plus
   [__baseaddr].  Adoption puts each record into the page table; a record
   whose [__baseaddr] is not an int, or repeats one already adopted, is
   corruption.  A write inserts the new image's records and makes them
   durable before it deletes the old ones, so a write cut short leaves
   every row of the old image or the new in the store (most often both,
   which adoption reports as duplicates), never neither. *)
let on_pool ?(snaptime = Clock.never) ?version_retain ?retain_duration ~name ~schema pool =
  let arity = Schema.arity schema in
  let heap =
    Heap.on_pool pool (Schema.extend schema [ Schema.col ~nullable:false baseaddr_col Value.Tint ])
  in
  let persisted = ref [] in
  let write image =
    let old = !persisted in
    persisted :=
      Version_store.fold image ~init:[] ~f:(fun rids a values ->
          Heap.insert heap (Array.append values [| Value.int a |]) :: rids);
    Heap.flush heap;
    List.iter (Heap.delete heap) old;
    Heap.flush heap
  in
  let t = make ?version_retain ?retain_duration ~name ~schema ~time:snaptime (Some write) in
  let corrupt fmt =
    Printf.ksprintf (fun s -> raise (Corrupt_snapshot (Printf.sprintf "snapshot %s: %s" name s))) fmt
  in
  Heap.iter heap (fun rid stored ->
      persisted := rid :: !persisted;
      match stored.(arity) with
      | Value.Int b ->
        let a = Int64.to_int b in
        if Version_store.put t.versions a (Array.sub stored 0 arity) <> None then
          corrupt "duplicate %s %d in persisted store" baseaddr_col a
      | _ -> corrupt "corrupt %s column in persisted store" baseaddr_col);
  t

let head t = Version_store.head t.versions

let flush t = Option.iter (fun write -> write (head t)) t.store

let name t = t.snap_name
let schema t = t.user
let snaptime t = t.time
let count t = Version_store.count (head t)

(* Secondary index maintenance. *)
let index_row sec base_addr values =
  let key = values.(sec.sec_column) in
  let set =
    match Value_btree.find sec.entries key with
    | Some set -> set
    | None ->
      let set = Hashtbl.create 4 in
      Value_btree.insert sec.entries key set;
      set
  in
  Hashtbl.replace set base_addr ()

let sec_add t base_addr values =
  Hashtbl.iter (fun _ sec -> index_row sec base_addr values) t.secondaries

(* Rebuild one index from the current image. *)
let backfill t sec =
  Value_btree.clear sec.entries;
  Version_store.iter (head t) (index_row sec)

let sec_remove t base_addr values =
  Hashtbl.iter
    (fun _ sec ->
      let key = values.(sec.sec_column) in
      match Value_btree.find sec.entries key with
      | Some set ->
        Hashtbl.remove set base_addr;
        if Hashtbl.length set = 0 then ignore (Value_btree.remove sec.entries key : bool)
      | None -> ())
    t.secondaries

(* Every mutation is one page-table edit; the secondary indexes follow
   from the old row the edit returns.  Rows arrive checked: a raw message
   by [apply], a framed one by [malformed] at staging. *)
let put t base_addr values =
  Option.iter (sec_remove t base_addr) (Version_store.put t.versions base_addr values);
  sec_add t base_addr values

let delete t base_addr =
  Option.iter (sec_remove t base_addr) (Version_store.delete t.versions base_addr)

(* Delete every entry with [lo <= BaseAddr <= hi]: the merge step of
   Figure 4.  Each successor probe at or below [hi] is a gap victim; an
   empty gap — the common case in a differential stream — costs the one
   probe. *)
let rec drop_range t ~lo ~hi =
  match Version_store.succ (head t) lo with
  | Some (a, _) when a <= hi ->
    delete t a;
    drop_range t ~lo:(a + 1) ~hi
  | _ -> ()

let clear t =
  Version_store.clear t.versions;
  Hashtbl.iter (fun _ sec -> Value_btree.clear sec.entries) t.secondaries

let subscribe t f = t.observers <- t.observers @ [ f ]

(* Observer delivery is a distinct step from the state change so that the
   commit-only delivery contract is structural: a framed stream reaches
   [replay], and so its observers, only inside its commit branch — a
   staged message of an epoch that aborts (sequence gap, truncation,
   corruption, supersession) is never delivered to subscribers.  Delivery
   stays per-message and pre-apply: {!Cascade}'s transformer reads the
   parent's previous state to decide what the child needs. *)
let notify t msg = List.iter (fun f -> f msg) t.observers

(* Figure 4 for one message, on rows already checked against the schema. *)
let rec replay t ~notify (msg : Refresh_msg.t) =
  (* Unbatch before notifying: observers (cascades, message meters) see
     the logical stream, never the transport coalescing. *)
  (match msg with Batch _ -> () | _ -> notify msg);
  match msg with
  | Batch ms -> List.iter (replay t ~notify) ms
  | Entry { addr; prev_qual; values } ->
    (* Everything strictly between the previous qualified entry and this
       one is gone from the base table's qualified set. *)
    drop_range t ~lo:(prev_qual + 1) ~hi:(addr - 1);
    put t addr values
  | Tail { last_qual } -> drop_range t ~lo:(last_qual + 1) ~hi:max_int
  | Region { lo; hi } -> drop_range t ~lo ~hi
  | Upsert { addr; values } -> put t addr values
  | Remove { addr } -> delete t addr
  | Clear -> clear t
  | Snaptime ts -> t.time <- ts
  | Register _ | Request _ ->
    (* Control messages flow the other way (snapshot -> base); receiving
       one here is harmless and means a loopback link. *)
    ()

(* A row the snapshot cannot hold (wrong arity, wrong type, NULL in a NOT
   NULL column), or [None].  A framed stream is checked at staging, so it
   aborts whole instead of raising half way through its replay. *)
let rec malformed t (msg : Refresh_msg.t) =
  match msg with
  | Entry { values; _ } | Upsert { values; _ } ->
    if Array.length values <> Schema.arity t.user then
      Some "tuple dimensions do not match snapshot schema"
    else (match Schema.validate_tuple t.user values with Ok () -> None | Error e -> Some e)
  | Batch ms -> List.find_map (malformed t) ms
  | Tail _ | Region _ | Remove _ | Clear | Snaptime _ | Register _ | Request _ -> None

let apply t msg =
  match malformed t msg with
  | Some e -> invalid_arg ("Snapshot_table: " ^ e)
  | None -> replay t ~notify:(notify t) msg

(* ------------------------------------------------------------------ *)
(* Atomic application of framed streams. *)

let fresh_stage epoch =
  { stage_epoch = epoch; expected_seq = 0; staged = []; staged_logical = 0; poison = None;
    stage_time_us = 0.0; decode_time_us = 0.0 }

let discard_stage t ~reason =
  match t.stage with
  | None -> ()
  | Some _ ->
    t.stage <- None;
    t.aborts <- t.aborts + 1;
    t.last_abort <- Some reason;
    Metrics.incr m_stream_aborts;
    Trace.event "refresh.discard"
      ~attrs:[ ("snapshot", t.snap_name); ("reason", reason) ]

(* Mark the in-flight stream bad; it will be discarded at its commit
   marker (or when the next epoch supersedes it).  Corruption can garble
   the frame header itself, so with no stream in flight we open an
   anonymous stage that the next well-formed frame adopts. *)
let poison_stage t reason =
  match t.stage with
  | Some st -> if st.poison = None then st.poison <- Some reason
  | None -> t.stage <- Some { (fresh_stage (-1)) with poison = Some reason }

(* [decode_us] is the time [apply_bytes] spent checksumming and decoding
   this frame, and [decoded_at] when it finished: staging is timed from
   there, so the two phases share one clock read. *)
let stage_frame t ~decode_us ~decoded_at { Refresh_msg.epoch; seq; msg } =
  let st =
    match t.stage with
    | Some st when st.stage_epoch = epoch -> st
    | Some st when st.stage_epoch = -1 ->
      st.stage_epoch <- epoch;
      st
    | Some st ->
      (* A frame from a different epoch means the previous stream was
         truncated before its commit marker: discard it wholesale. *)
      discard_stage t
        ~reason:
          (Printf.sprintf "epoch %d truncated (superseded by epoch %d)" st.stage_epoch epoch);
      let st = fresh_stage epoch in
      t.stage <- Some st;
      st
    | None ->
      let st = fresh_stage epoch in
      t.stage <- Some st;
      st
  in
  if seq <> st.expected_seq && st.poison = None then
    st.poison <-
      Some (Printf.sprintf "sequence gap in epoch %d: expected %d, got %d" epoch st.expected_seq seq);
  st.expected_seq <- seq + 1;
  st.decode_time_us <- st.decode_time_us +. decode_us;
  match msg with
  | Refresh_msg.Snaptime _ -> (
    (* The commit marker: apply everything or nothing. *)
    match st.poison with
    | Some reason -> discard_stage t ~reason
    | None ->
      t.stage <- None;
      let commit_ts = match msg with Refresh_msg.Snaptime ts -> ts | _ -> t.time in
      (* Seal the pre-commit image before any staged message edits the
         table, and publish the new epoch afterwards: readers pinned
         across this replay keep a consistent version throughout.  An
         observer has seen each message by the time it is applied, so an
         observer that raises does not stop the replay: the epoch commits
         whole, and the first such exception is raised after it. *)
      let failed = ref None in
      let notify msg =
        List.iter
          (fun f ->
            try f msg
            with e -> if !failed = None then failed := Some (e, Printexc.get_raw_backtrace ()))
          t.observers
      in
      let t0 = Trace.now_us () in
      Version_store.begin_commit t.versions;
      let t1 = Trace.now_us () in
      (match
         Trace.with_span "refresh.apply"
           ~attrs:[ ("snapshot", t.snap_name); ("epoch", string_of_int epoch) ]
           (fun () ->
             List.iter (replay t ~notify) (List.rev st.staged);
             replay t ~notify msg)
       with
      | () -> ()
      | exception e ->
        (* The table's own edits of a stream that passed [malformed] do
           not raise; should one, the epoch publishes nothing and the
           table goes back to the pre-commit image, its secondary indexes
           with it. *)
        let bt = Printexc.get_raw_backtrace () in
        Version_store.abort_commit t.versions;
        Hashtbl.iter (fun _ sec -> backfill t sec) t.secondaries;
        Printexc.raise_with_backtrace e bt);
      let t2 = Trace.now_us () in
      Version_store.end_commit t.versions ~epoch ~snaptime:commit_ts;
      t.last_phases <-
        { decode_us = st.decode_time_us; stage_us = st.stage_time_us; freeze_us = t1 -. t0;
          replay_us = t2 -. t1; publish_us = Trace.now_us () -. t2 };
      t.commits <- t.commits + 1;
      t.committed_epoch <- epoch;
      Metrics.incr m_stream_commits;
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failed)
  | _ ->
    (if st.poison = None then
       match malformed t msg with
       | Some e -> st.poison <- Some (Printf.sprintf "malformed frame in epoch %d: %s" epoch e)
       | None -> ());
    st.staged <- msg :: st.staged;
    st.staged_logical <- st.staged_logical + Refresh_msg.logical_count msg;
    st.stage_time_us <- st.stage_time_us +. (Trace.now_us () -. decoded_at)

let apply_framed t frame = stage_frame t ~decode_us:0.0 ~decoded_at:(Trace.now_us ()) frame

let apply_bytes t b =
  if Refresh_msg.is_framed b then begin
    let t0 = Trace.now_us () in
    match Refresh_msg.decode_framed b with
    | frame ->
      let decoded_at = Trace.now_us () in
      stage_frame t ~decode_us:(decoded_at -. t0) ~decoded_at frame
    | exception Refresh_msg.Corrupt reason -> poison_stage t ("corrupt frame: " ^ reason)
  end
  else
    match Refresh_msg.decode b with
    | msg ->
      if t.stage <> None then
        (* Raw bytes mid-stream can only be a frame whose tag byte was
           garbled in flight. *)
        poison_stage t "unframed bytes inside a framed stream"
      else apply t msg
    | exception Failure reason -> poison_stage t ("undecodable message: " ^ reason)

let epochs_committed t = t.commits
let epochs_aborted t = t.aborts
let last_abort t = t.last_abort
let last_committed_epoch t = t.committed_epoch
let last_commit_phases t = t.last_phases
let stream_pending t = t.stage <> None
let staged_depth t = match t.stage with None -> 0 | Some st -> st.staged_logical

let get t base_addr = Version_store.find (head t) base_addr

(* Traversals with no result list: the hot read paths — fleet readers,
   the bench, and [tuples] below — go through these instead of
   materializing [contents]' O(n) assoc list per read. *)
let iter t f = Version_store.iter (head t) f
let fold t ~init ~f = Version_store.fold (head t) ~init ~f

let contents t =
  List.rev (fold t ~init:[] ~f:(fun acc base_addr values -> (base_addr, values) :: acc))

let tuples t = List.rev (fold t ~init:[] ~f:(fun acc _ values -> values :: acc))

(* ------------------------------------------------------------------ *)
(* Versioned reads: transactions pinned to a retained refresh epoch. *)

type read_txn = { rt_table : t; rt_txn : Version_store.txn; rt_lease : Lease.t }

let version_retain t = Version_store.retain t.versions
let versions t = Version_store.versions t.versions

let horizon t = t.horizon
let retention_policy t = Horizon.policy t.horizon
let set_retention_policy t p = Horizon.set_policy t.horizon p

(* Every pinned read holds a Pinned_read lease on the snapshot's horizon
   for its lifetime, so the epoch floor reflects open readers — the
   fleet's [set_pinned_reads] transactions come through here and are
   lease-holders for free. *)
let lease_txn t tx =
  let lease =
    Horizon.acquire t.horizon ~kind:Lease.Pinned_read ~holder:t.snap_name
      ~epoch:(Version_store.txn_epoch tx) ()
  in
  { rt_table = t; rt_txn = tx; rt_lease = lease }

let read_txn ?epoch t = Option.map (lease_txn t) (Version_store.pin ?epoch t.versions)

let read_txn_exn ?epoch t = lease_txn t (Version_store.pin_exn ?epoch t.versions)

let release_txn rt =
  Version_store.release rt.rt_txn;
  Lease.release rt.rt_lease

let vacuum ?older_than ?dry_run t = Version_store.vacuum ?older_than ?dry_run t.versions
let txn_pinned rt = Version_store.txn_pinned rt.rt_txn
let txn_epoch rt = Version_store.txn_epoch rt.rt_txn
let txn_snaptime rt = Version_store.txn_snaptime rt.rt_txn
let txn_image rt = Version_store.txn_image rt.rt_txn
let txn_get rt addr = Version_store.find (txn_image rt) addr
let txn_count rt = Version_store.count (txn_image rt)
let txn_iter rt f = Version_store.iter (txn_image rt) f
let txn_fold rt ~init ~f = Version_store.fold (txn_image rt) ~init ~f

let txn_exists_in_range rt ?lo ?hi ~f () =
  Version_store.exists_in_range (txn_image rt) ?lo ?hi ~f ()

let txn_contents rt =
  List.rev (txn_fold rt ~init:[] ~f:(fun acc addr values -> (addr, values) :: acc))

let txn_lookup rt ~column value =
  (* Secondary indexes track only the live image; at a pinned version the
     lookup is an index-free scan of the version's pages. *)
  match Schema.index_of rt.rt_table.user column with
  | None -> invalid_arg (Printf.sprintf "Snapshot_table.txn_lookup: unknown column %s" column)
  | Some i ->
    List.rev
      (txn_fold rt ~init:[] ~f:(fun acc addr values ->
           if Value.equal values.(i) value then addr :: acc else acc))

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

let lookup t ~column value =
  match Hashtbl.find_opt t.secondaries (String.lowercase_ascii column) with
  | None -> invalid_arg (Printf.sprintf "Snapshot_table.lookup: no index on %s" column)
  | Some sec ->
    let addrs =
      match Value_btree.find sec.entries value with
      | Some set -> addrs_of_set set
      | None -> []
    in
    List.sort Addr.compare addrs

let lookup_range t ~column ?lo ?hi () =
  match Hashtbl.find_opt t.secondaries (String.lowercase_ascii column) with
  | None -> invalid_arg (Printf.sprintf "Snapshot_table.lookup_range: no index on %s" column)
  | Some sec ->
    let acc = ref [] in
    Value_btree.iter_range sec.entries ?lo ?hi (fun _ set -> acc := addrs_of_set set @ !acc);
    List.sort Addr.compare !acc

let high_water t = Option.value (Version_store.last (head t)) ~default:Addr.zero

let exists_in_range t ?lo ?hi ~f () = Version_store.exists_in_range (head t) ?lo ?hi ~f ()

(* The page table's own layout check, then each secondary index against
   a scan of the image: every row is indexed under its value, and the
   index holds nothing else. *)
let validate t =
  match Version_store.validate t.versions with
  | Error e -> Error e
  | Ok () -> (
    let exception Bad of string in
    let check _ sec =
      let name = (Schema.column t.user sec.sec_column).Schema.name in
      let held = Value_btree.fold sec.entries ~init:0 ~f:(fun n _ set -> n + Hashtbl.length set) in
      if held <> count t then
        raise (Bad (Printf.sprintf "index on %s holds %d entries, the table %d rows" name held (count t)));
      iter t (fun a values ->
          match Value_btree.find sec.entries values.(sec.sec_column) with
          | Some set when Hashtbl.mem set a -> ()
          | _ -> raise (Bad (Printf.sprintf "index on %s misses row %d" name a)))
    in
    match Hashtbl.iter check t.secondaries with () -> Ok () | exception Bad e -> Error e)
