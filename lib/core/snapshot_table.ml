open Snapdiff_storage
open Snapdiff_txn
module Int_btree = Snapdiff_index.Btree.Make (Int)
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
  stored : Schema.t;  (* user + __baseaddr *)
  heap : Heap.t;
  index : Addr.t Int_btree.t;  (* BaseAddr -> heap rid *)
  secondaries : (string, secondary) Hashtbl.t;  (* lowercased column name *)
  mutable observers : (Refresh_msg.t -> unit) list;
  mutable time : Clock.ts;
  mutable stage : stage option;
  mutable commits : int;
  mutable aborts : int;
  mutable last_abort : string option;
  mutable committed_epoch : int;  (* -1 before any framed commit *)
  mutable last_phases : commit_phases;  (* of the last framed commit *)
  versions : Version_store.t;  (* MVCC epoch ring; inert until retained/pinned *)
  horizon : Horizon.t;  (* epoch leases + retention policy for this snapshot *)
}

(* The version store's window onto the live image: logical pages keyed by
   BaseAddr span, assembled from the BaseAddr index on demand.  Closures
   capture heap and index directly so the store can be built before the
   table record exists. *)
let version_page_span = 64  (* BaseAddrs per logical version page *)

let make_live ~user ~heap ~index : Version_store.live =
  let span = version_page_span in
  let user_arity = Schema.arity user in
  let user_of stored = Array.sub stored 0 user_arity in
  {
    Version_store.live_page =
      (fun pid ->
        let lo = pid * span and hi = (pid * span) + span - 1 in
        let acc = ref [] in
        Int_btree.iter_range index ~lo ~hi (fun a rid ->
            match Heap.get heap rid with
            | Some stored -> acc := (a, user_of stored) :: !acc
            | None -> ());
        match !acc with [] -> None | l -> Some (Array.of_list (List.rev l)));
    live_pids =
      (fun () ->
        List.rev
          (Int_btree.fold index ~init:[] ~f:(fun acc a _ ->
               let pid = a / span in
               match acc with p :: _ when p = pid -> acc | _ -> pid :: acc)));
    live_get =
      (fun a ->
        match Int_btree.find index a with
        | None -> None
        | Some rid -> Option.map user_of (Heap.get heap rid));
    live_count = (fun () -> Heap.count heap);
  }

let make_versions ?version_retain ~user ~heap ~index () =
  let retain = Option.value version_retain ~default:1 in
  let live = make_live ~user ~heap ~index in
  Version_store.create ~retain ~page_span:version_page_span ~live ()

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

(* Wire the guard after construction (the closure needs the record). *)
let with_guard t =
  Version_store.set_reclaim_guard t.versions (fun ~epoch ~snaptime ->
      reclaim_guard t ~epoch ~snaptime);
  t

let make_horizon ?version_retain ?retain_duration () =
  let retain_epochs = max 1 (Option.value version_retain ~default:1) in
  Horizon.create ~policy:{ Horizon.retain_epochs; retain_duration } ()

let create ?(page_size = 4096) ?(frames = 128) ?version_retain
    ?retain_duration ~name ~schema () =
  let stored =
    Schema.extend schema [ Schema.col ~nullable:false baseaddr_col Value.Tint ]
  in
  let heap = Heap.create ~page_size ~frames stored in
  let index = Int_btree.create () in
  {
    snap_name = name;
    user = schema;
    stored;
    heap;
    index;
    secondaries = Hashtbl.create 4;
    observers = [];
    time = Clock.never;
    stage = None;
    commits = 0;
    aborts = 0;
    last_abort = None;
    committed_epoch = -1;
    last_phases = no_phases;
    versions = make_versions ?version_retain ~user:schema ~heap ~index ();
    horizon = make_horizon ?version_retain ?retain_duration ();
  }
  |> with_guard

let on_pool ?(snaptime = Clock.never) ?version_retain ?retain_duration
    ~name ~schema pool =
  let stored =
    Schema.extend schema [ Schema.col ~nullable:false baseaddr_col Value.Tint ]
  in
  let heap = Heap.on_pool pool stored in
  let index = Int_btree.create () in
  Heap.iter heap (fun rid tuple ->
      match tuple.(Schema.arity schema) with
      | Value.Int b -> Int_btree.insert index (Int64.to_int b) rid
      | _ ->
        raise
          (Corrupt_snapshot
             (Printf.sprintf "snapshot %s: corrupt %s column in persisted store" name
                baseaddr_col)));
  {
    snap_name = name;
    user = schema;
    stored;
    heap;
    index;
    secondaries = Hashtbl.create 4;
    observers = [];
    time = snaptime;
    stage = None;
    commits = 0;
    aborts = 0;
    last_abort = None;
    committed_epoch = -1;
    last_phases = no_phases;
    versions = make_versions ?version_retain ~user:schema ~heap ~index ();
    horizon = make_horizon ?version_retain ?retain_duration ();
  }
  |> with_guard

let flush t = Heap.flush t.heap

let name t = t.snap_name
let schema t = t.user
let snaptime t = t.time
let count t = Heap.count t.heap

let stored_tuple t base_addr values =
  let n = Array.length values in
  if n <> Schema.arity t.user then
    invalid_arg "Snapshot_table: tuple dimensions do not match snapshot schema";
  Array.init (n + 1) (fun i -> if i < n then values.(i) else Value.int base_addr)

(* Secondary index maintenance. *)
let sec_add t base_addr values =
  Hashtbl.iter
    (fun _ sec ->
      let key = values.(sec.sec_column) in
      let set =
        match Value_btree.find sec.entries key with
        | Some set -> set
        | None ->
          let set = Hashtbl.create 4 in
          Value_btree.insert sec.entries key set;
          set
      in
      Hashtbl.replace set base_addr ())
    t.secondaries

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

let user_of_rid t rid =
  Option.map
    (fun stored -> Array.sub stored 0 (Schema.arity t.user))
    (Heap.get t.heap rid)

(* The old row, decoded only when a secondary index must unlink it. *)
let indexed_old t rid = if Hashtbl.length t.secondaries = 0 then None else user_of_rid t rid

(* Rewrite the row at [rid] in place.  A row grown past its page's free
   space moves to a new rid instead — inserted before the old one is
   deleted, so a row that fits nowhere changes nothing — and the BaseAddr
   index follows it. *)
let rewrite_row t base_addr rid stored =
  match Heap.update t.heap rid stored with
  | () -> ()
  | exception Heap.Tuple_error _ ->
    let moved = Heap.insert t.heap stored in
    Heap.delete t.heap rid;
    Int_btree.insert t.index base_addr moved

(* The receiver's one probe: the first live BaseAddr at or above [lo],
   one descent of the index. *)
let probe t lo = Int_btree.find_first t.index ~lo

(* Every mutation funnels through {!Version_store.write}, naming its
   post-image: when versions are retained or pinned, the store records
   the post-image for the next freeze and holds its lock across the
   mutation so pinned readers never observe a half-applied entry; when
   the store is inert — the default — the mutation runs directly, one
   boolean test away from the pre-MVCC code.  [found] is the probe's answer at [base_addr]: the row to
   rewrite when it names [base_addr], an insert otherwise. *)
let put t base_addr found values =
  let stored = stored_tuple t base_addr values in
  Version_store.write t.versions (`Put (base_addr, values)) (fun () ->
      match found with
      | Some (a, rid) when a = base_addr ->
        let old = indexed_old t rid in
        rewrite_row t base_addr rid stored;
        Option.iter (sec_remove t base_addr) old;
        sec_add t base_addr values
      | _ ->
        let rid = Heap.insert t.heap stored in
        Int_btree.insert t.index base_addr rid;
        sec_add t base_addr values)

let delete t base_addr rid =
  Version_store.write t.versions (`Del base_addr) (fun () ->
      Option.iter (sec_remove t base_addr) (indexed_old t rid);
      Heap.delete t.heap rid;
      ignore (Int_btree.remove t.index base_addr : bool))

(* Delete every entry with [lo <= BaseAddr <= hi] and return the probe's
   answer just above [hi]: the merge step of Figure 4.  A gap victim is
   any probed key at or below [hi]; an empty gap — the common case in a
   differential stream — costs the one probe, whose answer the caller
   then uses for its own address. *)
let rec sweep t ~lo ~hi =
  match probe t lo with
  | Some (a, rid) when a <= hi ->
    delete t a rid;
    sweep t ~lo:(a + 1) ~hi
  | found -> found

let drop_range t ~lo ~hi = ignore (sweep t ~lo ~hi : (Addr.t * Addr.t) option)

let clear t =
  Version_store.write t.versions `All (fun () ->
      let all = Int_btree.to_list t.index in
      List.iter (fun (_, rid) -> Heap.delete t.heap rid) all;
      Int_btree.clear t.index;
      Hashtbl.iter (fun _ sec -> Value_btree.clear sec.entries) t.secondaries)

let subscribe t f = t.observers <- t.observers @ [ f ]

(* Observer delivery is a distinct step from the state change so that the
   commit-only delivery contract is structural: [notify] is reachable
   solely through [apply], and the framed staging path ([apply_framed])
   calls [apply] only inside its commit branch — a staged message of an
   epoch that aborts (sequence gap, truncation, corruption, supersession)
   is never delivered to subscribers.  Delivery stays per-message and
   pre-apply: {!Cascade}'s transformer reads the parent's previous state
   to decide what the child needs. *)
let notify t msg = List.iter (fun f -> f msg) t.observers

let rec apply t (msg : Refresh_msg.t) =
  (* Unbatch before notifying: observers (cascades, message meters) see
     the logical stream, never the transport coalescing. *)
  (match msg with Batch _ -> () | _ -> notify t msg);
  match msg with
  | Batch ms -> List.iter (apply t) ms
  | Entry { addr; prev_qual; values } ->
    (* Everything strictly between the previous qualified entry and this
       one is gone from the base table's qualified set; the probe that
       ends the gap lands on [addr]'s own row, if the table holds it. *)
    put t addr (sweep t ~lo:(min (prev_qual + 1) addr) ~hi:(addr - 1)) values
  | Tail { last_qual } -> drop_range t ~lo:(last_qual + 1) ~hi:max_int
  | Region { lo; hi } -> drop_range t ~lo ~hi
  | Upsert { addr; values } -> put t addr (probe t addr) values
  | Remove { addr } -> (
    match probe t addr with Some (a, rid) when a = addr -> delete t a rid | _ -> ())
  | Clear -> clear t
  | Snaptime ts -> t.time <- ts
  | Register _ | Request _ ->
    (* Control messages flow the other way (snapshot -> base); receiving
       one here is harmless and means a loopback link. *)
    ()

(* ------------------------------------------------------------------ *)
(* Atomic application of framed streams. *)

let fresh_stage epoch =
  { stage_epoch = epoch; expected_seq = 0; staged = []; staged_logical = 0; poison = None;
    stage_time_us = 0.0; decode_time_us = 0.0 }

(* A checksum-valid frame can still carry a row the snapshot cannot hold
   (wrong arity, wrong type, NULL in a NOT NULL column).  It is caught
   here, at staging, so the stream aborts whole instead of raising half
   way through its replay. *)
let rec malformed t (msg : Refresh_msg.t) =
  match msg with
  | Entry { values; _ } | Upsert { values; _ } -> (
    match Schema.validate_tuple t.user values with Ok () -> None | Error e -> Some e)
  | Batch ms -> List.find_map (malformed t) ms
  | Tail _ | Region _ | Remove _ | Clear | Snaptime _ | Register _ | Request _ -> None

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
      (* Freeze the pre-commit image (when retained or pinned) before any
         staged message mutates the table, and publish the new epoch as
         the live head afterwards: readers pinned across this replay keep
         a consistent version throughout. *)
      let t0 = Trace.now_us () in
      Version_store.begin_commit t.versions;
      let t1 = Trace.now_us () in
      let t2 = ref t1 in
      Fun.protect
        ~finally:(fun () ->
          t2 := Trace.now_us ();
          Version_store.end_commit t.versions ~epoch ~snaptime:commit_ts)
        (fun () ->
          Trace.with_span "refresh.apply"
            ~attrs:[ ("snapshot", t.snap_name); ("epoch", string_of_int epoch) ]
            (fun () ->
              List.iter (apply t) (List.rev st.staged);
              apply t msg));
      t.last_phases <-
        { decode_us = st.decode_time_us; stage_us = st.stage_time_us; freeze_us = t1 -. t0;
          replay_us = !t2 -. t1; publish_us = Trace.now_us () -. !t2 };
      t.commits <- t.commits + 1;
      t.committed_epoch <- epoch;
      Metrics.incr m_stream_commits)
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

let get t base_addr =
  match Int_btree.find t.index base_addr with
  | None -> None
  | Some rid ->
    Option.map (fun stored -> Array.sub stored 0 (Schema.arity t.user)) (Heap.get t.heap rid)

(* Allocation-free traversals (no result list; one transient user-tuple
   view per entry): the hot read paths — fleet readers, the bench, and
   [tuples] below — go through these instead of materializing [contents]'
   O(n) assoc list per read. *)
let iter t f =
  Int_btree.iter t.index (fun base_addr rid ->
      match user_of_rid t rid with
      | Some values -> f base_addr values
      | None -> ())

let fold t ~init ~f =
  Int_btree.fold t.index ~init ~f:(fun acc base_addr rid ->
      match user_of_rid t rid with
      | Some values -> f acc base_addr values
      | None -> acc)

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
let txn_get rt addr = Version_store.get rt.rt_txn addr
let txn_count rt = Version_store.count rt.rt_txn
let txn_iter rt f = Version_store.iter rt.rt_txn f
let txn_fold rt ~init ~f = Version_store.fold rt.rt_txn ~init ~f

let txn_exists_in_range rt ?lo ?hi ~f () =
  Version_store.exists_in_range rt.rt_txn ?lo ?hi ~f ()

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
      (* Backfill from current contents. *)
      Int_btree.iter t.index (fun base_addr rid ->
          match user_of_rid t rid with
          | Some values ->
            let key = values.(sec_column) in
            let set =
              match Value_btree.find sec.entries key with
              | Some set -> set
              | None ->
                let set = Hashtbl.create 4 in
                Value_btree.insert sec.entries key set;
                set
            in
            Hashtbl.replace set base_addr ()
          | None -> ());
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

let high_water t =
  match Int_btree.max_binding t.index with
  | Some (k, _) -> k
  | None -> Addr.zero

let exists_in_range t ?lo ?hi ~f () =
  let exception Found in
  try
    Int_btree.iter_range t.index ?lo ?hi (fun _ rid ->
        match user_of_rid t rid with
        | Some values -> if f values then raise Found
        | None -> ());
    false
  with Found -> true

let validate t =
  if Int_btree.length t.index <> Heap.count t.heap then
    Error
      (Printf.sprintf "index has %d entries, heap has %d" (Int_btree.length t.index)
         (Heap.count t.heap))
  else begin
    match Int_btree.validate t.index with
    | Error e -> Error ("index: " ^ e)
    | Ok () ->
      let bad = ref None in
      Int_btree.iter t.index (fun base_addr rid ->
          match Heap.get t.heap rid with
          | None -> bad := Some (Printf.sprintf "index %d points at dead rid" base_addr)
          | Some stored -> (
            match stored.(Schema.arity t.user) with
            | Value.Int b when Int64.to_int b = base_addr -> ()
            | _ -> bad := Some (Printf.sprintf "baseaddr mismatch at %d" base_addr)));
      (match !bad with None -> Ok () | Some e -> Error e)
  end
