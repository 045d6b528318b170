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

type page = (Addr.t * Row.t) array

(* One page of a root: the rows whose BaseAddr falls in one pid's span,
   ascending, in the first [len] slots of two parallel arrays (address,
   row).  A row is its encoded bytes, the one copy the receiver read out
   of its frame; a read decodes it.  [gen] is the generation the
   page was made in: the writer edits it in place only while that is the
   store's current generation, because only then can no published or
   pinned root reach it. *)
type pg = {
  gen : int;
  mutable len : int;
  mutable addrs : int array;
  mutable rows : Row.t array;
}

(* The page directory: the non-empty pages in pid order, in the first [n]
   slots of two parallel arrays.  It is copied on write like a page, so a
   commit copies it once and then swaps its copied pages into it. *)
type dir = { dgen : int; mutable n : int; mutable pids : int array; mutable pages : pg array }

(* A root: the page directory and its row count. *)
type image = { dir : dir; rows : int; span : int }

type version = {
  mutable v_epoch : int;
  mutable v_snaptime : Clock.ts;
  mutable v_holders : string list;  (* one entry per live pin *)
  mutable v_root : image;
  mutable v_dead : bool;  (* evicted from the ring; freed when pins drain *)
}

type t = {
  keep : int;
  span : int;
  lock : Mutex.t;
  (* The open root, edited by the one writer. *)
  mutable open_dir : dir;
  mutable open_rows : int;
  (* Bumped by every seal (commit start, pin of the head): pages made
     before it are reachable from some sealed root and are copied before
     an edit. *)
  mutable cur_gen : int;
  mutable ring : version list;  (* newest first *)
  mutable zombies : version list;
  mutable committing : bool;
}

type txn = {
  tx_store : t;
  tx_version : version;
  tx_root : image;
  tx_holder : string;
  mutable tx_pinned : bool;
}

(* ------------------------------------------------------------------ *)

let empty_dir gen = { dgen = gen; n = 0; pids = [||]; pages = [||] }

(* What an unused row slot holds. *)
let no_row = Row.of_tuple [||]

let no_page = { gen = -1; len = 0; addrs = [||]; rows = [||] }

(* The root of no rows: a new store's head, and what a freed version
   keeps. *)
let empty_root span = { dir = empty_dir (-1); rows = 0; span }

let empty = empty_root 64

let create ?(retain = 1) ?(page_span = 64) () =
  if page_span < 1 then invalid_arg "Version_store.create: page_span < 1";
  let head =
    {
      v_epoch = -1;
      v_snaptime = Clock.never;
      v_holders = [];
      v_root = empty_root page_span;
      v_dead = false;
    }
  in
  Metrics.shift m_versions_live 1.0;
  {
    keep = max 1 retain;
    span = page_span;
    lock = Mutex.create ();
    open_dir = empty_dir 0;
    open_rows = 0;
    cur_gen = 0;
    ring = [ head ];
    zombies = [];
    committing = false;
  }

let retain t = t.keep

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let head t = { dir = t.open_dir; rows = t.open_rows; span = t.span }

(* During a commit the head version's root is the pre-commit image sealed
   at its start; outside one it is the open root. *)
let committed t = if t.committing then (List.hd t.ring).v_root else head t

(* Start a new generation: every page made so far is now shared. *)
let seal t = t.cur_gen <- t.cur_gen + 1


(* Floor division, so a negative probe bound lands below every page. *)
let pid_of span a = if a >= 0 then a / span else -1 - ((-1 - a) / span)

(* The first of the [n] ascending [keys] at or above [x]; [n] if none. *)
let lower_bound keys n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Reading a root. *)

let find (r : image) addr =
  let d = r.dir and pid = pid_of r.span addr in
  let i = lower_bound d.pids d.n pid in
  if i = d.n || d.pids.(i) <> pid then None
  else
    let pg = d.pages.(i) in
    let j = lower_bound pg.addrs pg.len addr in
    if j < pg.len && pg.addrs.(j) = addr then Some pg.rows.(j) else None

let succ (r : image) lo =
  let d = r.dir in
  let i = lower_bound d.pids d.n (pid_of r.span lo) in
  if i = d.n then max_int
  else
    let pg = d.pages.(i) in
    let j = lower_bound pg.addrs pg.len lo in
    if j < pg.len then pg.addrs.(j)
    else if i + 1 < d.n then d.pages.(i + 1).addrs.(0)
    else max_int

let last (r : image) =
  let d = r.dir in
  if d.n = 0 then None
  else
    let pg = d.pages.(d.n - 1) in
    Some pg.addrs.(pg.len - 1)

let count (r : image) = r.rows

let iter (r : image) f =
  let d = r.dir in
  for i = 0 to d.n - 1 do
    let pg = d.pages.(i) in
    for j = 0 to pg.len - 1 do
      f pg.addrs.(j) pg.rows.(j)
    done
  done

let fold (r : image) ~init ~f =
  let acc = ref init in
  iter r (fun a tup -> acc := f !acc a tup);
  !acc

(* The first [na] and [nb] keys of two ascending arrays, merged: [on i j]
   for each key, [i] and [j] its slots, [-1] on the side that lacks it. *)
let merge ka na kb nb on =
  let rec go i j =
    if i < na && (j >= nb || ka.(i) < kb.(j)) then (on i (-1); go (i + 1) j)
    else if j < nb && (i >= na || kb.(j) < ka.(i)) then (on (-1) j; go i (j + 1))
    else if i < na then (on i j; go (i + 1) (j + 1))
  in
  go 0 0

(* The directories merged by pid, then each page that the roots do not
   share merged by address. *)
let diff (a : image) (b : image) f =
  let page (r : image) i = if i < 0 then no_page else r.dir.pages.(i) in
  let row (pg : pg) k = if k < 0 then None else Some pg.rows.(k) in
  merge a.dir.pids a.dir.n b.dir.pids b.dir.n (fun i j ->
      let pa = page a i and pb = page b j in
      if pa != pb then
        merge pa.addrs pa.len pb.addrs pb.len (fun k l ->
            f (if k < 0 then pb.addrs.(l) else pa.addrs.(k)) (row pa k) (row pb l)))

(* A page's encoded size, [8 + Row.length row] per row: computed on
   demand, so an edit never reads the row it replaces. *)
let page_bytes pg =
  let b = ref 0 in
  for j = 0 to pg.len - 1 do
    b := !b + 8 + Row.length pg.rows.(j)
  done;
  !b

let page_table (r : image) =
  let d = r.dir in
  List.init d.n (fun i ->
      let pg = d.pages.(i) in
      (d.pids.(i), Array.init pg.len (fun j -> (pg.addrs.(j), pg.rows.(j))), page_bytes pg))

(* ------------------------------------------------------------------ *)
(* The writer's edits of the open root. *)

(* A page copied or created, and the bytes of the slots it duplicated: a
   word per address and per row. *)
let note_copy slots =
  Metrics.incr m_pages_copied;
  Metrics.add m_copy_bytes (slots * 2 * (Sys.word_size / 8))

(* The open directory, made safe to edit in place. *)
let private_dir t =
  let d = t.open_dir in
  if d.dgen = t.cur_gen then d
  else begin
    let d =
      { dgen = t.cur_gen; n = d.n; pids = Array.sub d.pids 0 d.n; pages = Array.sub d.pages 0 d.n }
    in
    t.open_dir <- d;
    d
  end

(* The open directory's page [i], made safe to edit in place: a page some
   sealed root can reach is copied into the current generation. *)
let private_page t i =
  let pg = t.open_dir.pages.(i) in
  if pg.gen = t.cur_gen then pg
  else begin
    let n = pg.len in
    let copy =
      { gen = t.cur_gen; len = n; addrs = Array.sub pg.addrs 0 n; rows = Array.sub pg.rows 0 n }
    in
    note_copy n;
    (private_dir t).pages.(i) <- copy;
    copy
  end

(* [a] with room for one more than its [n] elements: itself, or a copy
   doubled up to [cap] slots. *)
let room a n ~cap fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (min cap (max 1 (2 * n))) fill in
    Array.blit a 0 b 0 n;
    b
  end

let insert a n i x =
  Array.blit a i a (i + 1) (n - i);
  a.(i) <- x

let remove a n i fill =
  Array.blit a (i + 1) a i (n - i - 1);
  a.(n - 1) <- fill

(* Edits outside a commit can race a pin of the head, which seals the
   open root, so they hold the lock.  Inside a commit a pin lands on the
   sealed pre-commit root and never reads the open one. *)
let editing t f = if t.committing then f () else locked t f

let put t addr row =
  editing t (fun () ->
      let d = t.open_dir and pid = pid_of t.span addr in
      let i = lower_bound d.pids d.n pid in
      if i = d.n || d.pids.(i) <> pid then begin
        note_copy 0;
        let d = private_dir t in
        d.pids <- room d.pids d.n ~cap:max_int 0;
        d.pages <- room d.pages d.n ~cap:max_int no_page;
        insert d.pids d.n i pid;
        insert d.pages d.n i
          { gen = t.cur_gen; len = 1; addrs = [| addr |]; rows = [| row |] };
        d.n <- d.n + 1;
        t.open_rows <- t.open_rows + 1;
        None
      end
      else begin
        let pg = private_page t i in
        let j = lower_bound pg.addrs pg.len addr in
        if j < pg.len && pg.addrs.(j) = addr then begin
          let old = pg.rows.(j) in
          pg.rows.(j) <- row;
          Some old
        end
        else begin
          pg.addrs <- room pg.addrs pg.len ~cap:t.span 0;
          pg.rows <- room pg.rows pg.len ~cap:t.span no_row;
          insert pg.addrs pg.len j addr;
          insert pg.rows pg.len j row;
          pg.len <- pg.len + 1;
          t.open_rows <- t.open_rows + 1;
          None
        end
      end)

let delete t addr =
  editing t (fun () ->
      let d = t.open_dir and pid = pid_of t.span addr in
      let i = lower_bound d.pids d.n pid in
      if i = d.n || d.pids.(i) <> pid then None
      else
        let pg = d.pages.(i) in
        let j = lower_bound pg.addrs pg.len addr in
        if j = pg.len || pg.addrs.(j) <> addr then None
        else begin
          let old = pg.rows.(j) in
          t.open_rows <- t.open_rows - 1;
          if pg.len = 1 then begin
            let d = private_dir t in
            remove d.pids d.n i 0;
            remove d.pages d.n i no_page;
            d.n <- d.n - 1
          end
          else begin
            let pg = private_page t i in
            remove pg.addrs pg.len j 0;
            remove pg.rows pg.len j no_row;
            pg.len <- pg.len - 1
          end;
          Some old
        end)

let clear t =
  editing t (fun () ->
      t.open_dir <- empty_dir t.cur_gen;
      t.open_rows <- 0)

let validate t =
  let d = t.open_dir in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  match
    let prev = ref min_int and rows = ref 0 in
    for i = 0 to d.n - 1 do
      let pid = d.pids.(i) and pg = d.pages.(i) in
      if pg.len < 1 || pg.len > t.span then bad "page %d holds %d rows" pid pg.len;
      for j = 0 to pg.len - 1 do
        let a = pg.addrs.(j) in
        if a <= !prev then bad "address %d follows %d" a !prev;
        if pid_of t.span a <> pid then bad "address %d outside page %d" a pid;
        prev := a
      done;
      rows := !rows + pg.len
    done;
    !rows
  with
  | exception Bad e -> Error e
  | rows when rows <> t.open_rows ->
    Error (Printf.sprintf "count is %d, pages hold %d rows" t.open_rows rows)
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Commit protocol. *)

let begin_commit t =
  locked t (fun () ->
      if t.committing then invalid_arg "Version_store.begin_commit: already committing";
      t.committing <- true;
      seal t;
      (List.hd t.ring).v_root <- head t)

let abort_commit t =
  locked t (fun () ->
      if not t.committing then invalid_arg "Version_store.abort_commit: no commit in flight";
      t.committing <- false;
      let r = (List.hd t.ring).v_root in
      t.open_dir <- r.dir;
      t.open_rows <- r.rows)

let free_version t v =
  (* Drop the root so its pages can go; the record itself is small. *)
  v.v_root <- empty_root t.span;
  Metrics.shift m_versions_live (-1.0);
  Metrics.incr m_reclaimed

(* The one eviction walk; lock held.  Beyond the head, a version goes
   when it has fallen past the retained count or, given [older_than], its
   snaptime is strictly below it (the cutoff overrides the count).  A
   pinned one parks on the zombie list, where its readers keep their
   image and the last release frees it; any other is freed.  Returns the
   number zombied and the roots of the versions freed, or that would be
   on a [dry_run], which changes nothing. *)
let evict ?older_than ?(dry_run = false) t =
  let expired v = match older_than with Some ts -> v.v_snaptime < ts | None -> false in
  let zombied = ref 0 and freed = ref [] in
  let rec walk i = function
    | [] -> []
    | v :: rest when i = 0 || not (i >= t.keep || expired v) -> v :: walk (i + 1) rest
    | v :: rest ->
      if v.v_holders <> [] then begin
        incr zombied;
        if not dry_run then begin
          v.v_dead <- true;
          t.zombies <- v :: t.zombies
        end
      end
      else begin
        freed := v.v_root :: !freed;
        if not dry_run then free_version t v
      end;
      if dry_run then v :: walk (i + 1) rest else walk (i + 1) rest
  in
  let ring = walk 0 t.ring in
  if not dry_run then t.ring <- ring;
  (!zombied, !freed)

let end_commit t ~epoch ~snaptime =
  locked t (fun () ->
      if not t.committing then invalid_arg "Version_store.end_commit: no commit in flight";
      t.committing <- false;
      Metrics.incr m_commits;
      t.ring <-
        { v_epoch = epoch; v_snaptime = snaptime; v_holders = []; v_root = head t; v_dead = false }
        :: t.ring;
      Metrics.shift m_versions_live 1.0;
      ignore (evict t : int * image list))

(* ------------------------------------------------------------------ *)
(* Read transactions. *)

let pin ?epoch ?(holder = "?") t =
  locked t (fun () ->
      let top = List.hd t.ring in
      let v =
        match epoch with
        | None -> Some top
        | Some e -> List.find_opt (fun v -> v.v_epoch = e) t.ring
      in
      match v with
      | None -> None
      | Some v ->
        (* Outside a commit the head's image is the open root: seal it, so
           the writer copies any page this pin reaches before editing it.
           Inside one, the head's root was sealed at the commit start. *)
        if v == top && not t.committing then begin
          seal t;
          top.v_root <- head t
        end;
        v.v_holders <- holder :: v.v_holders;
        Metrics.incr m_pins;
        Some
          { tx_store = t; tx_version = v; tx_root = v.v_root; tx_holder = holder; tx_pinned = true })

let release tx =
  if tx.tx_pinned then begin
    tx.tx_pinned <- false;
    let t = tx.tx_store in
    locked t (fun () ->
        let v = tx.tx_version in
        let rec drop = function
          | [] -> []
          | h :: tl -> if String.equal h tx.tx_holder then tl else h :: drop tl
        in
        v.v_holders <- drop v.v_holders;
        if v.v_dead && v.v_holders = [] then begin
          t.zombies <- List.filter (fun z -> z != v) t.zombies;
          free_version t v;
          Metrics.incr m_zombie_reclaimed
        end)
  end

(* Oldest/newest retained epoch; lock held.  The ring is newest first and
   never empty (the head), so the range is its two ends. *)
let live_range_locked t =
  let hi = (List.hd t.ring).v_epoch in
  let rec last = function [ v ] -> v.v_epoch | _ :: tl -> last tl | [] -> hi in
  (last t.ring, hi)

let live_range t = locked t (fun () -> live_range_locked t)

let pin_exn ?epoch ?holder t =
  match pin ?epoch ?holder t with
  | Some tx -> tx
  | None ->
    let live_lo, live_hi = live_range t in
    let requested = Option.value epoch ~default:live_hi in
    raise (Epoch_not_retained { requested; live_lo; live_hi })

let txn_epoch tx = tx.tx_version.v_epoch
let txn_snaptime tx = tx.tx_version.v_snaptime
let txn_pinned tx = tx.tx_pinned

let txn_image tx =
  if not tx.tx_pinned then invalid_arg "Version_store.txn_image: released txn";
  tx.tx_root

(* ------------------------------------------------------------------ *)

type version_info = {
  vi_epoch : int;
  vi_snaptime : Clock.ts;
  vi_pins : int;
  vi_frozen : bool;
}

let versions t =
  locked t (fun () ->
      List.mapi
        (fun i v ->
          {
            vi_epoch = v.v_epoch;
            vi_snaptime = v.v_snaptime;
            vi_pins = List.length v.v_holders;
            vi_frozen = i > 0;
          })
        t.ring)

let zombie_count t = locked t (fun () -> List.length t.zombies)

let holders t =
  locked t (fun () ->
      List.concat_map (fun v -> List.map (fun h -> (h, v.v_epoch)) v.v_holders) (t.ring @ t.zombies)
      |> List.sort (fun (h, e) (h', e') -> compare (e, h) (e', h')))

(* ------------------------------------------------------------------ *)
(* Vacuum: the eviction walk on demand, counted. *)

type vacuum_stats = {
  vac_examined : int;  (* eviction candidates considered *)
  vac_reclaimed : int;  (* versions freed (or would be, on a dry run) *)
  vac_zombied : int;  (* pinned candidates parked on the zombie list *)
  vac_bytes : int;  (* encoded bytes the freed versions held *)
}

let image_bytes (r : image) =
  let d = r.dir in
  let b = ref 0 in
  for i = 0 to d.n - 1 do
    b := !b + page_bytes d.pages.(i)
  done;
  !b

let vacuum ?older_than ?dry_run t =
  locked t (fun () ->
      let zombied, freed = evict ?older_than ?dry_run t in
      let reclaimed = List.length freed in
      {
        vac_examined = zombied + reclaimed;
        vac_reclaimed = reclaimed;
        vac_zombied = zombied;
        vac_bytes = List.fold_left (fun b r -> b + image_bytes r) 0 freed;
      })
