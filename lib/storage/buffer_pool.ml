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
   refresh) never contend on one lock.  The hit path (pin + LRU touch + unpin) takes exactly one
   stripe lock; everything that spans stripes — miss handling, eviction,
   flush, invalidate — first takes the global [g_m] and, when it must
   examine frames, the stripe locks in ascending order.  Lock order is
   always g_m -> stripes ascending, and only a g_m holder ever holds
   more than one stripe lock, so the pool cannot deadlock.  [g_m] also
   serializes all {!Page_store} I/O (the store is not itself
   domain-safe).  Counters and the LRU tick are atomics.

   Run single-domain, the pool behaves exactly as the unstriped original:
   same tick sequence, same stats, same LRU victim (ticks are unique, so
   the strict-min fold has a unique answer regardless of fold order). *)

let stripe_count = 16

type stripe = { s_m : Mutex.t; tbl : (int, frame) Hashtbl.t }

type t = {
  store : Page_store.t;
  capacity : int;
  policy : policy;
  g_m : Mutex.t;
  stripes : stripe array;
  clock_ring : int Queue.t;  (* second-chance order; guarded by g_m *)
  n_frames : int Atomic.t;
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
    n_frames = Atomic.make 0;
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

(* Eviction runs with g_m held.  Victim selection takes every stripe lock
   so a concurrent hit cannot pin the chosen victim under us; the victim
   is unlinked before the stripe locks drop, after which it is private to
   the evictor and can be written back under g_m alone. *)

let evict_lru t =
  lock_all t;
  (* Choose the least-recently-used unpinned frame. *)
  let victim =
    Array.fold_left
      (fun best s ->
        Hashtbl.fold
          (fun _ f best ->
            if f.pins > 0 then best
            else
              match best with
              | None -> Some f
              | Some b -> if f.last_used < b.last_used then Some f else best)
          s.tbl best)
      None t.stripes
  in
  match victim with
  | None ->
    unlock_all t;
    failwith "Buffer_pool: all frames pinned"
  | Some f ->
    Hashtbl.remove (stripe_of t f.page_no).tbl f.page_no;
    Atomic.decr t.n_frames;
    unlock_all t;
    ignore (writeback t f : int);
    Atomic.incr t.evictions;
    Metrics.incr m_evictions

let evict_second_chance t =
  lock_all t;
  (* Sweep the ring: a referenced or pinned frame gets a second chance. *)
  let budget = ref (2 * (Queue.length t.clock_ring + 1)) in
  let rec sweep () =
    if Queue.is_empty t.clock_ring || !budget <= 0 then begin
      unlock_all t;
      failwith "Buffer_pool: all frames pinned"
    end
    else begin
      decr budget;
      let page_no = Queue.pop t.clock_ring in
      match Hashtbl.find_opt (stripe_of t page_no).tbl page_no with
      | None -> sweep ()  (* stale ring entry *)
      | Some f ->
        if f.pins > 0 || f.referenced then begin
          f.referenced <- false;
          Queue.add page_no t.clock_ring;
          sweep ()
        end
        else begin
          Hashtbl.remove (stripe_of t page_no).tbl page_no;
          Atomic.decr t.n_frames;
          unlock_all t;
          ignore (writeback t f : int);
          Atomic.incr t.evictions;
          Metrics.incr m_evictions
        end
    end
  in
  sweep ()

let evict_one t =
  match t.policy with Lru -> evict_lru t | Second_chance -> evict_second_chance t

(* Pin page [n] if resident, refreshing its LRU state, all under its
   stripe lock so eviction (which holds every stripe lock while picking a
   victim) can never choose a frame between our find and our pin. *)
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
  (* Miss path, g_m held: evict if full, read from the store, insert the
     frame already pinned. *)
  Atomic.incr t.misses;
  Metrics.incr m_misses;
  if Atomic.get t.n_frames >= t.capacity then evict_one t;
  let image = Page_store.read t.store n in
  let f =
    { page_no = n; page = Page.of_bytes image; dirty = false; pins = 1;
      last_used = 1 + Atomic.fetch_and_add t.tick 1; referenced = true }
  in
  let s = stripe_of t n in
  Mutex.lock s.s_m;
  Hashtbl.replace s.tbl n f;
  Mutex.unlock s.s_m;
  Atomic.incr t.n_frames;
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
  Array.iter (fun s -> Hashtbl.iter (fun _ fr -> f fr) s.tbl) t.stripes

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
      Array.iter (fun s -> Hashtbl.reset s.tbl) t.stripes;
      Atomic.set t.n_frames 0;
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
