open Snapdiff_storage
module Metrics = Snapdiff_obs.Metrics
module Clock = Snapdiff_txn.Clock

let m_versions_live = Metrics.gauge Metrics.global "mvcc.versions_live"
let m_copy_bytes = Metrics.counter Metrics.global "mvcc.copy_bytes"
let m_pages_copied = Metrics.counter Metrics.global "mvcc.pages_copied"
let m_commits = Metrics.counter Metrics.global "mvcc.commits"
let m_reclaimed = Metrics.counter Metrics.global "mvcc.versions_reclaimed"
let m_zombie_reclaimed = Metrics.counter Metrics.global "mvcc.zombies_reclaimed"
let m_pins = Metrics.counter Metrics.global "mvcc.pins"

exception Epoch_not_retained of { requested : int; live_lo : int; live_hi : int }

let () =
  Printexc.register_printer (function
    | Epoch_not_retained { requested; live_lo; live_hi } ->
      Some
        (Printf.sprintf "Epoch_not_retained(epoch %d; retained epochs %d..%d)" requested
           live_lo live_hi)
    | _ -> None)

type page = (Addr.t * Tuple.t) array

type live = {
  live_page : int -> page option;
  live_pids : unit -> int list;
  live_get : Addr.t -> Tuple.t option;
  live_count : unit -> int;
}

(* A frozen page: its rows, plus their addresses and encoded sizes
   ([row_bytes]) as flat int arrays and the page's byte total.  A merge
   locates its post-images and moves the total by the delta from these
   alone, never touching the scattered blocks of untouched rows. *)
type npage = { rows : page; addrs : int array; sizes : int array; bytes : int }

(* The live head reads through the host; a frozen version owns a
   complete page table (absent pid = empty) whose pages are immutable and
   shared with the neighbouring freezes' tables. *)
type view = Live | Frozen of (int, npage) Hashtbl.t

type version = {
  mutable v_epoch : int;
  mutable v_snaptime : Clock.ts;
  mutable v_pins : int;
  mutable v_view : view;
  mutable v_dead : bool;  (* evicted from the ring; freed when pins drain *)
}

type t = {
  keep : int;
  span : int;
  live : live;
  lock : Mutex.t;
  mutable ring : version list;  (* newest first; head is the live image *)
  mutable zombies : version list;
  (* In-flight commit bookkeeping. *)
  mutable committing : bool;
  mutable froze_head : bool;  (* this commit took the freeze (slow) path *)
  (* Incremental freeze: the last freeze's page table, valid while
     [dirty] holds the post-image of every mutation since, per pid, newest
     first ([None] = deleted).  Dropped when the store goes inert (writes
     then bypass it) and on [`All]; the next freeze then builds from
     scratch. *)
  mutable freeze_base : (int, npage) Hashtbl.t option;
  dirty : (int, posts ref) Hashtbl.t;
  (* Cached "mutations need interception" flag: one unsynchronized read on
     the write path keeps the inert default at zero overhead. *)
  mutable is_active : bool;
  (* The retention horizon's veto: [guard ~epoch ~snaptime] is false when
     some live lease or the retention policy still needs that version, in
     which case eviction keeps it in the ring instead of freeing or
     zombifying it.  Consulted by ring trimming and {!vacuum}; the default
     (always reclaimable) is the pre-lifecycle refcount-only behaviour. *)
  mutable guard : epoch:int -> snaptime:Clock.ts -> bool;
}

and posts = (Addr.t * Tuple.t option) list

type txn = { tx_store : t; tx_version : version; mutable tx_pinned : bool }

(* ------------------------------------------------------------------ *)

let create ?(retain = 1) ?(page_span = 64) ~live () =
  if page_span < 1 then invalid_arg "Version_store.create: page_span < 1";
  let head =
    { v_epoch = -1; v_snaptime = Clock.never; v_pins = 0; v_view = Live; v_dead = false }
  in
  Metrics.shift m_versions_live 1.0;
  {
    keep = max 1 retain;
    span = page_span;
    live;
    lock = Mutex.create ();
    ring = [ head ];
    zombies = [];
    committing = false;
    froze_head = false;
    freeze_base = None;
    dirty = Hashtbl.create 64;
    is_active = false;
    guard = (fun ~epoch:_ ~snaptime:_ -> true);
  }

let set_reclaim_guard t g = t.guard <- g

let retain t = t.keep
let page_span t = t.span
let active t = t.is_active

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let drop_base t =
  if t.freeze_base <> None then begin
    t.freeze_base <- None;
    Hashtbl.reset t.dirty
  end

(* Recompute the interception flag; call with the lock held.  An inert
   store stops seeing writes, so the freeze base goes with it. *)
let refresh_active t =
  t.is_active <-
    (match t.ring with
    | [ { v_view = Live; v_pins = 0; _ } ] -> t.zombies <> []
    | _ -> true);
  if not t.is_active then drop_base t

let row_bytes tup = 8 + Tuple.encoded_size tup

let page_bytes (p : page) = Array.fold_left (fun acc (_, tup) -> acc + row_bytes tup) 0 p

let note_bytes n =
  Metrics.incr m_pages_copied;
  Metrics.add m_copy_bytes n

(* Remember the mutation's post-image for the next freeze's merge.  A
   clear empties every page at once; the next freeze rebuilds instead.
   Frozen pages never read through to live, so nothing is captured
   before the host mutates. *)
let note_post t target =
  let push addr post =
    let pid = addr / t.span in
    match Hashtbl.find_opt t.dirty pid with
    | Some l -> l := (addr, post) :: !l
    | None -> Hashtbl.add t.dirty pid (ref [ (addr, post) ])
  in
  if t.freeze_base <> None then
    match target with
    | `Put (addr, tup) -> push addr (Some tup)
    | `Del addr -> push addr None
    | `All -> drop_base t

let write t target mutate =
  if not t.is_active then mutate ()
  else
    locked t (fun () ->
        match mutate () with
        | v ->
          note_post t target;
          v
        | exception e ->
          (* The host may have half-applied the mutation: the post-image
             no longer describes the live image. *)
          let bt = Printexc.get_raw_backtrace () in
          drop_base t;
          Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* Commit protocol. *)

(* Freeze without a base: every live page, read through the host. *)
let build_pages t =
  let pages = Hashtbl.create 64 in
  List.iter
    (fun pid ->
      match t.live.live_page pid with
      | Some rows ->
        let sizes = Array.map (fun (_, tup) -> row_bytes tup) rows in
        let np =
          { rows; addrs = Array.map fst rows; sizes; bytes = Array.fold_left ( + ) 0 sizes }
        in
        note_bytes np.bytes;
        Hashtbl.replace pages pid np
      | None -> ())
    (t.live.live_pids ());
  pages

(* A pid's post-images, newest first, as an ascending list holding only
   the last write per address.  A refresh stream writes in address order,
   so the reversed list is usually already that; otherwise sort (stable,
   so the newest of equal addresses stays first) and drop the older ones. *)
let ascending_posts (l : posts) =
  let rec strictly_desc = function
    | (a, _) :: ((b, _) :: _ as tl) -> a > b && strictly_desc tl
    | _ -> true
  in
  if strictly_desc l then List.rev l
  else
    let rec dedup = function
      | (a, x) :: (b, _) :: tl when a = b -> dedup ((a, x) :: tl)
      | p :: tl -> p :: dedup tl
      | [] -> []
    in
    dedup (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) l)

(* One linear merge of an old page with its pid's ascending post-images;
   [None] when nothing is left.  A first pass sizes the result exactly,
   moves the byte total by the delta and records each post-image's
   encoded size; the second fills the result from those sizes, copying
   the untouched runs wholesale. *)
let merge_page old (posts : posts) =
  let rows, addrs, sizes, bytes =
    match old with
    | Some p -> (p.rows, p.addrs, p.sizes, p.bytes)
    | None -> ([||], [||], [||], 0)
  in
  let n = Array.length rows in
  let post_sizes = Array.make (List.length posts) 0 in
  let size = ref n and bytes = ref bytes and r = ref 0 in
  List.iteri
    (fun j (a, post) ->
      while !r < n && addrs.(!r) < a do
        incr r
      done;
      if !r < n && addrs.(!r) = a then begin
        bytes := !bytes - sizes.(!r);
        decr size
      end;
      match post with
      | Some tup ->
        post_sizes.(j) <- row_bytes tup;
        bytes := !bytes + post_sizes.(j);
        incr size
      | None -> ())
    posts;
  if !size = 0 then None
  else begin
    let out = Array.make !size (0, [||]) in
    let out_addrs = Array.make !size 0 and out_sizes = Array.make !size 0 in
    let k = ref 0 and r = ref 0 in
    let copy_to a =
      let from = !r in
      while !r < n && addrs.(!r) < a do
        incr r
      done;
      Array.blit rows from out !k (!r - from);
      Array.blit addrs from out_addrs !k (!r - from);
      Array.blit sizes from out_sizes !k (!r - from);
      k := !k + (!r - from)
    in
    List.iteri
      (fun j (a, post) ->
        copy_to a;
        if !r < n && addrs.(!r) = a then incr r;
        match post with
        | Some tup ->
          out.(!k) <- (a, tup);
          out_addrs.(!k) <- a;
          out_sizes.(!k) <- post_sizes.(j);
          incr k
        | None -> ())
      posts;
    copy_to max_int;
    Some { rows = out; addrs = out_addrs; sizes = out_sizes; bytes = !bytes }
  end

(* Freeze from a base: share its pages and rebuild only the dirty
   pids, each by one merge — no host read, no decode. *)
let merge_pages t base =
  let pages = Hashtbl.copy base in
  Hashtbl.iter
    (fun pid l ->
      match merge_page (Hashtbl.find_opt base pid) (ascending_posts !l) with
      | Some np ->
        note_bytes np.bytes;
        Hashtbl.replace pages pid np
      | None -> Hashtbl.remove pages pid)
    t.dirty;
  pages

let freeze_head t head =
  let pages = match t.freeze_base with Some base -> merge_pages t base | None -> build_pages t in
  t.freeze_base <- Some pages;
  Hashtbl.reset t.dirty;
  head.v_view <- Frozen pages

let begin_commit t =
  locked t (fun () ->
      if t.committing then invalid_arg "Version_store.begin_commit: already committing";
      t.committing <- true;
      let head = List.hd t.ring in
      (* Inert fast path: nothing retained, nobody watching — the commit
         mutates the live image in place, exactly the un-versioned table. *)
      if t.keep = 1 && head.v_pins = 0 && t.zombies = [] then t.froze_head <- false
      else begin
        t.froze_head <- true;
        freeze_head t head;
        refresh_active t
      end)

(* The view a freed version keeps: empty, and never mutated (no frozen
   table is). *)
let freed : (int, npage) Hashtbl.t = Hashtbl.create 1

let free_version v =
  (* Drop the page table so its pages can go; the record itself is small.
     The table may still be the next freeze's base, so it is only
     unreferenced here, never emptied. *)
  v.v_view <- Frozen freed;
  Metrics.shift m_versions_live (-1.0);
  Metrics.incr m_reclaimed

let end_commit t ~epoch ~snaptime =
  locked t (fun () ->
      if not t.committing then invalid_arg "Version_store.end_commit: no commit in flight";
      t.committing <- false;
      Metrics.incr m_commits;
      if not t.froze_head then begin
        (* Fast path: the head is still the live image; relabel it. *)
        let head = List.hd t.ring in
        head.v_epoch <- epoch;
        head.v_snaptime <- snaptime
      end
      else begin
        let head =
          { v_epoch = epoch; v_snaptime = snaptime; v_pins = 0; v_view = Live; v_dead = false }
        in
        Metrics.shift m_versions_live 1.0;
        let ring = head :: t.ring in
        let rec trim i = function
          | [] -> []
          | v :: rest when i >= t.keep ->
            if v.v_pins > 0 then begin
              (* Evicted but pinned: survives as a zombie until the pins
                 (and their leases) drain — never reclaimed while held. *)
              v.v_dead <- true;
              t.zombies <- v :: t.zombies;
              trim (i + 1) rest
            end
            else if not (t.guard ~epoch:v.v_epoch ~snaptime:v.v_snaptime) then
              (* The retention horizon (a lease, or the retention policy's
                 time window) still needs this unpinned epoch: it stays in
                 the ring — pinnable later, vacuumable once released. *)
              v :: trim (i + 1) rest
            else begin
              free_version v;
              trim (i + 1) rest
            end
          | v :: rest -> v :: trim (i + 1) rest
        in
        t.ring <- trim 0 ring
      end;
      refresh_active t)

(* ------------------------------------------------------------------ *)
(* Read transactions. *)

let pin ?epoch t =
  locked t (fun () ->
      let v =
        match epoch with
        | None -> Some (List.hd t.ring)
        | Some e -> List.find_opt (fun v -> v.v_epoch = e) t.ring
      in
      match v with
      | None -> None
      | Some v ->
        v.v_pins <- v.v_pins + 1;
        Metrics.incr m_pins;
        refresh_active t;
        Some { tx_store = t; tx_version = v; tx_pinned = true })

let release tx =
  if tx.tx_pinned then begin
    tx.tx_pinned <- false;
    let t = tx.tx_store in
    locked t (fun () ->
        let v = tx.tx_version in
        v.v_pins <- v.v_pins - 1;
        if v.v_dead && v.v_pins = 0 then begin
          t.zombies <- List.filter (fun z -> z != v) t.zombies;
          free_version v;
          Metrics.incr m_zombie_reclaimed
        end;
        refresh_active t)
  end

(* Oldest/newest retained epoch; lock held.  The ring is newest first and
   never empty (the live head), so the range is its two ends. *)
let live_range_locked t =
  let hi = (List.hd t.ring).v_epoch in
  let rec last = function [ v ] -> v.v_epoch | _ :: tl -> last tl | [] -> hi in
  (last t.ring, hi)

let live_range t = locked t (fun () -> live_range_locked t)

let pin_exn ?epoch t =
  match pin ?epoch t with
  | Some tx -> tx
  | None ->
    let live_lo, live_hi = live_range t in
    let requested = Option.value epoch ~default:live_hi in
    raise (Epoch_not_retained { requested; live_lo; live_hi })

let txn_epoch tx = tx.tx_version.v_epoch
let txn_snaptime tx = tx.tx_version.v_snaptime
let txn_pinned tx = tx.tx_pinned

let check_pinned tx op = if not tx.tx_pinned then invalid_arg ("Version_store." ^ op ^ ": released txn")

(* Resolve the pinned version's image of one pid; lock held. *)
let resolve_page t v pid : page option =
  match v.v_view with
  | Live -> t.live.live_page pid
  | Frozen pages -> Option.map (fun np -> np.rows) (Hashtbl.find_opt pages pid)

(* The pids that may be non-empty at the pinned version; lock held. *)
let candidate_pids t v =
  match v.v_view with
  | Live -> t.live.live_pids ()
  | Frozen pages -> List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) pages [])

let page_table tx =
  check_pinned tx "page_table";
  let t = tx.tx_store and v = tx.tx_version in
  locked t (fun () ->
      List.filter_map
        (fun pid ->
          match v.v_view with
          | Frozen pages ->
            Option.map (fun np -> (pid, np.rows, np.bytes)) (Hashtbl.find_opt pages pid)
          | Live -> Option.map (fun p -> (pid, p, page_bytes p)) (t.live.live_page pid))
        (candidate_pids t v))

let find_in_page (p : page) addr =
  (* Binary search; pages are sorted by address. *)
  let lo = ref 0 and hi = ref (Array.length p - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let a, tup = p.(mid) in
    let c = Addr.compare a addr in
    if c = 0 then begin
      found := Some tup;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let get tx addr =
  check_pinned tx "get";
  let t = tx.tx_store in
  locked t (fun () ->
      match tx.tx_version.v_view with
      | Live -> t.live.live_get addr
      | _ -> (
        match resolve_page t tx.tx_version (addr / t.span) with
        | None -> None
        | Some p -> find_in_page p addr))

let iter_pages tx f =
  (* Fetch the pid list and then each page under short lock windows.
     Frozen pages never change, and a commit freezes a pinned head before
     it mutates anything, so every fetch is consistent with the pinned
     version no matter how a concurrent commit interleaves. *)
  let t = tx.tx_store in
  let pids = locked t (fun () -> candidate_pids t tx.tx_version) in
  List.iter
    (fun pid ->
      match locked t (fun () -> resolve_page t tx.tx_version pid) with
      | None -> ()
      | Some p -> f p)
    pids

let iter tx f =
  check_pinned tx "iter";
  iter_pages tx (fun p -> Array.iter (fun (a, tup) -> f a tup) p)

let fold tx ~init ~f =
  check_pinned tx "fold";
  let acc = ref init in
  iter_pages tx (fun p -> Array.iter (fun (a, tup) -> acc := f !acc a tup) p);
  !acc

let count tx =
  check_pinned tx "count";
  let t = tx.tx_store in
  match tx.tx_version.v_view with
  | Live -> locked t (fun () -> t.live.live_count ())
  | _ ->
    let n = ref 0 in
    iter_pages tx (fun p -> n := !n + Array.length p);
    !n

let exists_in_range tx ?lo ?hi ~f () =
  check_pinned tx "exists_in_range";
  let t = tx.tx_store in
  let in_range a =
    (match lo with None -> true | Some l -> Addr.compare a l >= 0)
    && match hi with None -> true | Some h -> Addr.compare a h <= 0
  in
  let pid_ok pid =
    let first = pid * t.span and last = (pid * t.span) + t.span - 1 in
    (match lo with None -> true | Some l -> last >= l)
    && match hi with None -> true | Some h -> first <= h
  in
  let exception Found in
  try
    let pids = locked t (fun () -> candidate_pids t tx.tx_version) in
    List.iter
      (fun pid ->
        if pid_ok pid then
          match locked t (fun () -> resolve_page t tx.tx_version pid) with
          | None -> ()
          | Some p ->
            Array.iter (fun (a, tup) -> if in_range a && f tup then raise Found) p)
      pids;
    false
  with Found -> true

(* ------------------------------------------------------------------ *)

type version_info = {
  vi_epoch : int;
  vi_snaptime : Clock.ts;
  vi_pins : int;
  vi_frozen : bool;
}

let versions t =
  locked t (fun () ->
      List.map
        (fun v ->
          {
            vi_epoch = v.v_epoch;
            vi_snaptime = v.v_snaptime;
            vi_pins = v.v_pins;
            vi_frozen = v.v_view <> Live;
          })
        t.ring)

let zombie_count t = locked t (fun () -> List.length t.zombies)

(* ------------------------------------------------------------------ *)
(* Vacuum: horizon-driven reclamation of retained versions. *)

type vacuum_stats = {
  vac_examined : int;  (* eviction candidates considered *)
  vac_reclaimed : int;  (* versions freed (or would be, on a dry run) *)
  vac_zombied : int;  (* pinned candidates parked on the zombie list *)
  vac_kept : int;  (* unpinned candidates the horizon guard protected *)
  vac_bytes : int;  (* encoded bytes the freed versions held *)
}

let version_bytes v =
  match v.v_view with
  | Live -> 0
  | Frozen pages -> Hashtbl.fold (fun _ np acc -> acc + np.bytes) pages 0

let vacuum ?older_than ?(dry_run = false) t =
  locked t (fun () ->
      if t.committing then invalid_arg "Version_store.vacuum: commit in flight";
      let expired v =
        match older_than with Some ts -> v.v_snaptime < ts | None -> false
      in
      let stats =
        ref { vac_examined = 0; vac_reclaimed = 0; vac_zombied = 0; vac_kept = 0; vac_bytes = 0 }
      in
      let bump f = stats := f !stats in
      (* The live head (position 0) is never a candidate; beyond it a
         version goes when it has fallen past the retained count (ring
         overage the guard kept alive earlier) or is explicitly older
         than the cutoff, which overrides the count.  Pinned candidates
         are evicted to the zombie list — their readers keep a
         byte-identical image and the final release reclaims them — and
         unpinned ones are freed unless the horizon guard (a live lease,
         or the retention policy's time window) still needs them. *)
      let rec walk i = function
        | [] -> []
        | v :: rest when i = 0 || not (i >= t.keep || expired v) -> v :: walk (i + 1) rest
        | v :: rest ->
          bump (fun s -> { s with vac_examined = s.vac_examined + 1 });
          if v.v_pins > 0 then begin
            bump (fun s -> { s with vac_zombied = s.vac_zombied + 1 });
            if dry_run then v :: walk (i + 1) rest
            else begin
              v.v_dead <- true;
              t.zombies <- v :: t.zombies;
              walk (i + 1) rest
            end
          end
          else if not (t.guard ~epoch:v.v_epoch ~snaptime:v.v_snaptime) then begin
            bump (fun s -> { s with vac_kept = s.vac_kept + 1 });
            v :: walk (i + 1) rest
          end
          else begin
            bump (fun s ->
                { s with vac_reclaimed = s.vac_reclaimed + 1; vac_bytes = s.vac_bytes + version_bytes v });
            if dry_run then v :: walk (i + 1) rest
            else begin
              free_version v;
              walk (i + 1) rest
            end
          end
      in
      let ring' = walk 0 t.ring in
      if not dry_run then t.ring <- ring';
      refresh_active t;
      !stats)
