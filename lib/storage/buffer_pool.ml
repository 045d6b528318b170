module Metrics = Snapdiff_obs.Metrics

(* Per-pool stats stay on the pool (see {!stats}); these global handles
   aggregate across every pool in the process for [snapshotdb stats]. *)
let m_hits = Metrics.counter Metrics.global "bufferpool.hits"
let m_misses = Metrics.counter Metrics.global "bufferpool.misses"
let m_evictions = Metrics.counter Metrics.global "bufferpool.evictions"
let m_writebacks = Metrics.counter Metrics.global "bufferpool.writebacks"
let m_writeback_bytes = Metrics.counter Metrics.global "bufferpool.writeback_bytes"
let m_writeback_saved = Metrics.counter Metrics.global "bufferpool.writeback_bytes_saved"

type policy = Lru | Second_chance

type frame = {
  page_no : int;
  page : Page.t;
  mutable dirty : bool;  (* guarded by the frame's stripe lock *)
  mutable pins : int;  (* guarded by the frame's stripe lock *)
  mutable last_used : int;  (* logical tick for LRU *)
  mutable referenced : bool;  (* second-chance bit *)
  mutable slot : int;  (* index in [resident]; guarded by g_m *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  writeback_bytes : int;
  writeback_bytes_saved : int;
}

(* Domain-safety: the resident-page table is striped by page number so
   domains pinning distinct pages (e.g. MVCC reader domains beside a
   refresh) never contend on one lock.  The hit path (pin + LRU touch +
   unpin) takes exactly one stripe lock.  Everything that changes which
   pages are resident — miss handling and eviction — holds the global
   [g_m]; whole-pool operations (flush, invalidate) take [g_m] and then
   every stripe lock in ascending order.  Lock order is always g_m ->
   stripes ascending, and only a g_m holder ever holds more than one
   stripe lock, so the pool cannot deadlock.  [g_m] also serializes all
   {!Page_store} I/O (the store is not itself domain-safe).  Counters and
   the LRU tick are atomics.

   [resident] lists the resident frames compactly in its first
   [n_resident] slots; only g_m holders change it, so the evictor (a g_m
   holder) can walk it without stripe locks.  A miss never allocates a
   page buffer once the pool is full: the victim's buffer is reused for
   the incoming page, and buffers of dropped frames wait in [spare].  A
   pool therefore allocates at most [capacity] page buffers.

   Run single-domain, the pool behaves exactly as the unstriped original:
   same tick sequence, same stats, same LRU victim (ticks are unique, so
   the strict-min scan has a unique answer regardless of scan order). *)

let stripe_count = 16

type stripe = { s_m : Mutex.t; tbl : (int, frame) Hashtbl.t }

type t = {
  store : Page_store.t;
  capacity : int;
  policy : policy;
  g_m : Mutex.t;
  stripes : stripe array;
  clock_ring : int Queue.t;  (* second-chance order; guarded by g_m *)
  mutable resident : frame array;  (* guarded by g_m; sized on first fault *)
  mutable n_resident : int;  (* guarded by g_m *)
  mutable spare : bytes list;  (* page buffers of dropped frames; guarded by g_m *)
  tick : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  writebacks : int Atomic.t;
  writeback_bytes : int Atomic.t;
  writeback_bytes_saved : int Atomic.t;
}

let create ?(frames = 128) ?(policy = Lru) store =
  if frames < 1 then invalid_arg "Buffer_pool.create: need at least one frame";
  {
    store;
    capacity = frames;
    policy;
    g_m = Mutex.create ();
    stripes =
      Array.init stripe_count (fun _ ->
          { s_m = Mutex.create (); tbl = Hashtbl.create 16 });
    clock_ring = Queue.create ();
    resident = [||];
    n_resident = 0;
    spare = [];
    tick = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    writebacks = Atomic.make 0;
    writeback_bytes = Atomic.make 0;
    writeback_bytes_saved = Atomic.make 0;
  }

let store t = t.store

let stripe_of t n = t.stripes.(n land (stripe_count - 1))

let lock_all t = Array.iter (fun s -> Mutex.lock s.s_m) t.stripes

let unlock_all t = Array.iter (fun s -> Mutex.unlock s.s_m) t.stripes

(* [resident] maintenance, g_m held. *)
let add_resident t f =
  if Array.length t.resident = 0 then t.resident <- Array.make t.capacity f;
  f.slot <- t.n_resident;
  t.resident.(t.n_resident) <- f;
  t.n_resident <- t.n_resident + 1

let remove_resident t f =
  let last = t.resident.(t.n_resident - 1) in
  t.resident.(f.slot) <- last;
  last.slot <- f.slot;
  t.n_resident <- t.n_resident - 1

(* Write back only the page's tracked dirty ranges when that is cheaper
   than a full-page write (each range write carries per-call overhead, so
   a nearly-full page goes out whole).  The frame's image was adopted from
   the store, so it differs from the stored page only inside the tracked
   ranges — writing those alone re-synchronizes the store.

   Caller must hold g_m (store I/O) and must have exclusive access to the
   frame's [dirty] flag: either all stripe locks (flush paths, frame still
   resident) or the frame already removed from its stripe (eviction).
   Returns the bytes written (0 if the frame was clean). *)
let writeback t frame =
  if not frame.dirty then 0
  else begin
    let size = Page.page_size frame.page in
    let ranges = Page.dirty_ranges frame.page in
    let range_bytes = Page.dirty_bytes frame.page in
    let written =
      if ranges <> [] && 2 * range_bytes < size then begin
        (* One write_ranges call = one counted page write, so sub-page
           writeback does not inflate [Page_store.writes_performed]. *)
        Page_store.write_ranges t.store frame.page_no (Page.bytes frame.page) ranges;
        range_bytes
      end
      else begin
        Page_store.write t.store frame.page_no (Page.bytes frame.page);
        size
      end
    in
    Page.reset_dirty_ranges frame.page;
    frame.dirty <- false;
    Atomic.incr t.writebacks;
    ignore (Atomic.fetch_and_add t.writeback_bytes written : int);
    ignore (Atomic.fetch_and_add t.writeback_bytes_saved (size - written) : int);
    Metrics.incr m_writebacks;
    Metrics.add m_writeback_bytes written;
    Metrics.add m_writeback_saved (size - written);
    written
  end

(* Eviction runs with g_m held.  The victim is unlinked from its stripe
   under that stripe's lock, so no concurrent hit can pin it afterwards;
   from then on it is private to the evictor, which writes it back under
   g_m alone and hands its page buffer to the incoming page. *)

let retire t f =
  remove_resident t f;
  ignore (writeback t f : int);
  Atomic.incr t.evictions;
  Metrics.incr m_evictions;
  Page.bytes f.page

(* The least-recently-used unpinned frame and the tick the walk read for
   it, from an unlocked walk of [resident].  Concurrent hits may pin or
   touch frames during the walk; the caller confirms the choice under the
   victim's stripe lock. *)
let lru_candidate t =
  let best = ref None and best_used = ref max_int in
  for i = 0 to t.n_resident - 1 do
    let f = t.resident.(i) in
    let used = f.last_used in
    if f.pins = 0 && used < !best_used then begin
      best := Some f;
      best_used := used
    end
  done;
  match !best with Some f -> Some (f, !best_used) | None -> None

let rec evict_lru t =
  match lru_candidate t with
  | Some (f, used) ->
    let s = stripe_of t f.page_no in
    Mutex.lock s.s_m;
    (* Still unpinned and untouched since the walk read it, so still the
       oldest frame the walk saw unpinned; otherwise walk again. *)
    if f.pins = 0 && f.last_used = used then begin
      Hashtbl.remove s.tbl f.page_no;
      Mutex.unlock s.s_m;
      retire t f
    end
    else begin
      Mutex.unlock s.s_m;
      evict_lru t
    end
  | None ->
    (* Every frame looked pinned; decide under all stripe locks so a
       racing unpin cannot make the failure spurious. *)
    lock_all t;
    let any_unpinned = ref false in
    for i = 0 to t.n_resident - 1 do
      if t.resident.(i).pins = 0 then any_unpinned := true
    done;
    unlock_all t;
    if !any_unpinned then evict_lru t else failwith "Buffer_pool: all frames pinned"

let evict_second_chance t =
  (* Sweep the ring: a referenced or pinned frame gets a second chance.
     Each ring entry is examined under its own stripe lock. *)
  let budget = ref (2 * (Queue.length t.clock_ring + 1)) in
  let rec sweep () =
    if Queue.is_empty t.clock_ring || !budget <= 0 then
      failwith "Buffer_pool: all frames pinned"
    else begin
      decr budget;
      let page_no = Queue.pop t.clock_ring in
      let s = stripe_of t page_no in
      Mutex.lock s.s_m;
      match Hashtbl.find_opt s.tbl page_no with
      | None ->
        Mutex.unlock s.s_m;
        sweep ()  (* stale ring entry *)
      | Some f when f.pins > 0 || f.referenced ->
        f.referenced <- false;
        Mutex.unlock s.s_m;
        Queue.add page_no t.clock_ring;
        sweep ()
      | Some f ->
        Hashtbl.remove s.tbl page_no;
        Mutex.unlock s.s_m;
        retire t f
    end
  in
  sweep ()

(* A page buffer for an incoming page, g_m held: the evicted victim's
   when the pool is full, else a spare or (at most [capacity] times over
   the pool's life) a fresh one. *)
let frame_buffer t =
  if t.n_resident >= t.capacity then
    match t.policy with Lru -> evict_lru t | Second_chance -> evict_second_chance t
  else
    match t.spare with
    | buf :: rest ->
      t.spare <- rest;
      buf
    | [] -> Bytes.create (Page_store.page_size t.store)

(* Pin page [n] if resident, refreshing its LRU state, all under its
   stripe lock so an evictor (which unlinks its victim under the same
   lock) can never take a frame between our find and our pin. *)
let try_pin t n =
  let s = stripe_of t n in
  Mutex.lock s.s_m;
  let r =
    match Hashtbl.find_opt s.tbl n with
    | Some f ->
      f.pins <- f.pins + 1;
      f.last_used <- 1 + Atomic.fetch_and_add t.tick 1;
      f.referenced <- true;
      Some f
    | None -> None
  in
  Mutex.unlock s.s_m;
  r

let fault_in t n =
  (* Miss path, g_m held: check the page number before anything is
     evicted, take a buffer (evicting if full), read the page into it,
     and insert the frame already pinned. *)
  if n < 0 || n >= Page_store.page_count t.store then raise (Page_store.Bad_page n);
  Atomic.incr t.misses;
  Metrics.incr m_misses;
  let buf = frame_buffer t in
  let page =
    match
      Page_store.read_into t.store n buf;
      Page.of_bytes buf
    with
    | page -> page
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.spare <- buf :: t.spare;
      Printexc.raise_with_backtrace e bt
  in
  let f =
    { page_no = n; page; dirty = false; pins = 1;
      last_used = 1 + Atomic.fetch_and_add t.tick 1; referenced = true; slot = 0 }
  in
  let s = stripe_of t n in
  Mutex.lock s.s_m;
  Hashtbl.replace s.tbl n f;
  Mutex.unlock s.s_m;
  add_resident t f;
  if t.policy = Second_chance then Queue.add n t.clock_ring;
  f

let get_pinned t n =
  match try_pin t n with
  | Some f ->
    Atomic.incr t.hits;
    Metrics.incr m_hits;
    f
  | None ->
    Mutex.lock t.g_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.g_m)
      (fun () ->
        (* Another domain may have faulted the page in while we waited
           for g_m; re-check before reading the store. *)
        match try_pin t n with
        | Some f ->
          Atomic.incr t.hits;
          Metrics.incr m_hits;
          f
        | None -> fault_in t n)

let unpin t frame ~dirty =
  let s = stripe_of t frame.page_no in
  Mutex.lock s.s_m;
  if dirty then frame.dirty <- true;
  frame.pins <- frame.pins - 1;
  Mutex.unlock s.s_m

let with_page t n f =
  let frame = get_pinned t n in
  let dirty = ref false in
  Fun.protect
    ~finally:(fun () -> unpin t frame ~dirty:!dirty)
    (fun () ->
      let status, result = f frame.page in
      (match status with `Dirty -> dirty := true | `Clean -> ());
      result)

let allocate_page t = Page_store.allocate t.store

(* Whole-pool operations: g_m plus every stripe lock, so frames cannot
   be pinned/dirtied/evicted mid-walk. *)
let with_all t f =
  Mutex.lock t.g_m;
  lock_all t;
  Fun.protect
    ~finally:(fun () ->
      unlock_all t;
      Mutex.unlock t.g_m)
    f

let iter_frames t f =
  for i = 0 to t.n_resident - 1 do
    f t.resident.(i)
  done

let flush_all t = with_all t (fun () -> iter_frames t (fun f -> ignore (writeback t f : int)))

let dirty_pages t =
  with_all t (fun () ->
      let acc = ref [] in
      iter_frames t (fun f -> if f.dirty then acc := f.page_no :: !acc);
      List.sort Int.compare !acc)

let writeback_page t n =
  with_all t (fun () ->
      match Hashtbl.find_opt (stripe_of t n).tbl n with
      | Some f when f.dirty -> writeback t f
      | _ -> 0)

let invalidate t =
  with_all t (fun () ->
      iter_frames t (fun f ->
          if f.pins > 0 then failwith "Buffer_pool.invalidate: pinned frame");
      iter_frames t (fun f -> ignore (writeback t f : int));
      iter_frames t (fun f -> t.spare <- Page.bytes f.page :: t.spare);
      Array.iter (fun s -> Hashtbl.reset s.tbl) t.stripes;
      t.n_resident <- 0;
      Queue.clear t.clock_ring)

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    writebacks = Atomic.get t.writebacks;
    writeback_bytes = Atomic.get t.writeback_bytes;
    writeback_bytes_saved = Atomic.get t.writeback_bytes_saved;
  }
