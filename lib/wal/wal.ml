module Codec = Snapdiff_storage.Codec
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace

let m_appends = Metrics.counter Metrics.global "wal.appends"
let m_append_bytes = Metrics.counter Metrics.global "wal.append_bytes"
let m_truncations = Metrics.counter Metrics.global "wal.truncations"
let m_fsyncs = Metrics.counter Metrics.global "wal.fsyncs"
let m_torn_tails = Metrics.counter Metrics.global "wal.torn_tails"
let h_group_batch = Metrics.histogram Metrics.global "wal.group_commit_batch"
let m_holds_taken = Metrics.counter Metrics.global "wal.holds_taken"
let m_holds_released = Metrics.counter Metrics.global "wal.holds_released"
let m_holds_live = Metrics.gauge Metrics.global "wal.holds_live"

type lsn = int

type backend = Memory | File of string

(* On-disk segment format:

   {v
   +----------+-----------+--------------------------------·····--+
   | WALSEG02 | base (i64) | frame | frame | frame | ...           |
   +----------+-----------+--------------------------------·····--+
   v}

   Each frame is [u32 payload length | u32 checksum | payload],
   little-endian, where the payload is exactly one {!Record.write} image
   and the checksum is {!Codec.checksum} of the payload.  The magic names
   the checksum rule: a WALSEG01 segment, summed with FNV-1a, is refused
   rather than reopened as an empty valid prefix.
   LSNs remain byte offsets into the {e unframed} logical log (the
   in-memory image), so framing overhead never shifts an LSN; they are
   recomputed on {!open_file} by re-accumulating payload lengths. *)

let segment_magic = "WALSEG02"
let segment_header_size = 16
let frame_header_size = 8

type file_state = {
  mutable fd : Unix.file_descr;  (* swapped when truncation renames a fresh segment in *)
  path : string;
  window : int;  (* commits per fsync; 1 = fsync every commit *)
  mutable pending_commits : int;  (* commits written since the last fsync *)
  mutable unsynced : bool;  (* any bytes written since the last fsync *)
  mutable fsync_count : int;  (* real fsyncs issued on this segment *)
  mutable durable_lsn : lsn;  (* end_lsn as of the last fsync *)
}

(* The retained log is one growable byte image: records are written into
   it in place and every reader decodes from it through a cursor.  A
   truncation moves the retained suffix into a fresh image, so a cursor
   over the old one stays valid.

   [holds] is the log's retention registry: a truncation never passes the
   lowest live hold.  Holds are taken and released from any domain, so
   [hold_lock] guards the list, and a truncation keeps it for its whole
   run: no hold can be registered between computing the floor and
   discarding the records below it.  No code outside this module runs
   under the lock. *)
type t = {
  mutable img : bytes;  (* the retained records are [img.[0, len)] *)
  mutable len : int;
  mutable count : int;
  mutable base : lsn;  (* LSN of the first retained byte *)
  per_table : (string, lsn) Hashtbl.t;  (* table -> LSN of its latest record *)
  file : file_state option;
  hold_lock : Mutex.t;
  mutable holds : hold list;
}

and hold = { h_wal : t; h_holder : string; mutable h_lsn : lsn }

let start_lsn = 0

let default_group_commit_window = 8

let end_lsn t = t.base + t.len

let really_write fd b =
  let len = Bytes.length b in
  let rec go pos =
    if pos < len then begin
      let k = Unix.write fd b pos (len - pos) in
      go (pos + k)
    end
  in
  go 0

let write_segment_header b base =
  Bytes.blit_string segment_magic 0 b 0 (String.length segment_magic);
  Codec.write_int b (String.length segment_magic) base

(* The frame of the record at [img.[pos, pos+len)], written at [off] of
   [dst]; returns the offset just past it. *)
let write_frame dst off img ~pos ~len =
  let off = Codec.write_u32 dst off len in
  let off = Codec.write_u32 dst off (Codec.checksum img ~pos ~len) in
  Bytes.blit img pos dst off len;
  off + len

let tmp_path path = path ^ ".tmp"

(* Make a just-renamed segment's directory entry durable.  Some
   filesystems reject fsync on a directory fd; treat that as best-effort
   rather than failing the truncation. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dirfd ->
    Fun.protect
      ~finally:(fun () -> Unix.close dirfd)
      (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())

let mark_synced t fs =
  fs.fsync_count <- fs.fsync_count + 1;
  Metrics.incr m_fsyncs;
  if fs.pending_commits > 0 then
    Metrics.observe h_group_batch (float_of_int fs.pending_commits);
  fs.pending_commits <- 0;
  fs.unsynced <- false;
  fs.durable_lsn <- end_lsn t

let do_fsync t fs =
  Trace.with_span "wal.fsync" (fun () -> Unix.fsync fs.fd);
  mark_synced t fs

let mk ?file () =
  { img = Bytes.create 4096; len = 0; count = 0; base = 0; per_table = Hashtbl.create 8; file;
    hold_lock = Mutex.create (); holds = [] }

let fresh_segment () =
  let b = Bytes.create segment_header_size in
  ignore (write_segment_header b 0 : int);
  b

let create ?(backend = Memory) ?group_commit_window () =
  let window = Option.value group_commit_window ~default:default_group_commit_window in
  if window < 1 then invalid_arg "Wal.create: group_commit_window < 1";
  match backend with
  | Memory -> mk ()
  | File path ->
    (try Sys.remove (tmp_path path) with Sys_error _ -> ());
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    really_write fd (fresh_segment ());
    mk
      ~file:
        { fd; path; window; pending_commits = 0; unsynced = true; fsync_count = 0;
          durable_lsn = 0 }
      ()

let backend t = match t.file with None -> Memory | Some fs -> File fs.path

let group_commit_window t = match t.file with None -> 1 | Some fs -> fs.window

let fsyncs t = match t.file with None -> 0 | Some fs -> fs.fsync_count

let durable_end_lsn t =
  match t.file with
  | None -> end_lsn t
  | Some fs -> fs.durable_lsn

let sync t =
  match t.file with
  | None -> ()
  | Some fs -> if fs.unsynced || fs.pending_commits > 0 then do_fsync t fs

let close t =
  match t.file with
  | None -> ()
  | Some fs ->
    sync t;
    Unix.close fs.fd

(* The record's table, if any, now last appears at [at]. *)
let note t at r =
  t.count <- t.count + 1;
  match Record.table_of r with
  | Some table -> Hashtbl.replace t.per_table table at
  | None -> ()

let reserve t n =
  if t.len + n > Bytes.length t.img then begin
    let img = Bytes.create (max (t.len + n) (2 * Bytes.length t.img)) in
    Bytes.blit t.img 0 img 0 t.len;
    t.img <- img
  end

let append t r =
  let at = end_lsn t in
  let pos = t.len in
  reserve t (Record.size r);
  t.len <- Record.write t.img pos r;
  note t at r;
  (match t.file with
  | None -> ()
  | Some fs ->
    let len = t.len - pos in
    let frame = Bytes.create (frame_header_size + len) in
    ignore (write_frame frame 0 t.img ~pos ~len : int);
    really_write fs.fd frame;
    fs.unsynced <- true;
    (* Group commit: Commit records share one fsync per [window] commits;
       everything else rides along un-synced until the next window flush
       (or an explicit {!sync}). *)
    (match r with
    | Record.Commit _ ->
      fs.pending_commits <- fs.pending_commits + 1;
      if fs.pending_commits >= fs.window then do_fsync t fs
    | _ -> ()));
  Metrics.incr m_appends;
  Metrics.add m_append_bytes (t.len - pos);
  at

let last_lsn_for t ~table = Hashtbl.find_opt t.per_table table

let oldest_retained t = t.base

let record_count t = t.count

let byte_size t = t.len

(* A cursor over the retained records from [lsn] on. *)
let cursor t lsn =
  let c = Codec.Cursor.create () in
  Codec.Cursor.set c t.img ~pos:(lsn - t.base) ~len:(end_lsn t - lsn);
  c

let read t lsn =
  if lsn < t.base || lsn >= end_lsn t then failwith "Wal.read: bad LSN";
  let c = cursor t lsn in
  let r = Record.read c in
  (r, t.base + Codec.Cursor.pos c)

let iter_from t lsn f =
  if lsn < t.base || lsn > end_lsn t then failwith "Wal.iter_from: bad LSN";
  let base = t.base and c = cursor t lsn in
  while not (Codec.Cursor.at_end c) do
    let at = base + Codec.Cursor.pos c in
    f at (Record.read c)
  done

(* Rewrite the whole segment from the retained in-memory image: fresh
   header carrying the new base, then one frame per retained record.
   Segment truncation is rare (checkpoint-driven), so a full rewrite is
   acceptable.

   The rewrite must never modify the live segment in place: a crash
   mid-overwrite would leave new frames mixed with stale old bytes, and
   {!open_file}'s torn-tail scan — which truncates at the first bad
   frame — would silently drop previously fsync-durable records above the
   mix point.  Instead the new segment is written to a sibling temp file,
   fsynced, then [rename(2)]d over the old path (the atomic commit point)
   and the directory fsynced: a crash at any instant leaves either the
   complete old segment (plus an ignorable temp file) or the complete new
   one, never a hybrid. *)
let rewrite_file t fs =
  let out = Bytes.create (segment_header_size + (frame_header_size * t.count) + t.len) in
  let off = ref (write_segment_header out t.base) in
  let c = cursor t t.base in
  while not (Codec.Cursor.at_end c) do
    let pos = Codec.Cursor.pos c in
    ignore (Record.read c : Record.t);
    off := write_frame out !off t.img ~pos ~len:(Codec.Cursor.pos c - pos)
  done;
  let tmp = tmp_path fs.path in
  let tmp_fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     really_write tmp_fd out;
     Trace.with_span "wal.fsync" (fun () -> Unix.fsync tmp_fd);
     Unix.close tmp_fd
   with e ->
     (try Unix.close tmp_fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp fs.path;
  fsync_dir fs.path;
  (* The old fd still names the now-unlinked old segment: swap in the new
     one, positioned at its end for subsequent appends. *)
  Unix.close fs.fd;
  let fd = Unix.openfile fs.path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  fs.fd <- fd;
  (* The temp-file fsync made everything (pending commits included)
     durable; account for it as this rewrite's one real fsync. *)
  mark_synced t fs

(* --- Holds ---------------------------------------------------------------- *)

let locked t f =
  Mutex.lock t.hold_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.hold_lock) f

let hold t ~holder lsn =
  let h = { h_wal = t; h_holder = holder; h_lsn = lsn } in
  locked t (fun () -> t.holds <- h :: t.holds);
  Metrics.incr m_holds_taken;
  Metrics.shift m_holds_live 1.0;
  h

let move_hold h lsn = locked h.h_wal (fun () -> h.h_lsn <- lsn)

let release_hold h =
  let t = h.h_wal in
  let live =
    locked t (fun () ->
        let live = List.memq h t.holds in
        if live then t.holds <- List.filter (fun h' -> h' != h) t.holds;
        live)
  in
  if live then begin
    Metrics.incr m_holds_released;
    Metrics.shift m_holds_live (-1.0)
  end

let with_hold t ~holder lsn f =
  let h = hold t ~holder lsn in
  Fun.protect ~finally:(fun () -> release_hold h) f

(* (holder, lsn) pairs, ascending by LSN, then holder. *)
let by_lsn holds =
  List.map (fun h -> (h.h_holder, h.h_lsn)) holds
  |> List.sort (fun (a, x) (b, y) -> compare (x, a) (y, b))

let holders t = locked t (fun () -> by_lsn t.holds)

(* The floor a truncation to [ceiling] stops at, and the holds below the
   ceiling that set it; the caller holds the lock. *)
let floor_below t ceiling =
  let gated = List.filter (fun h -> h.h_lsn < ceiling) t.holds in
  let floor = List.fold_left (fun acc h -> min acc h.h_lsn) ceiling gated in
  (max t.base floor, by_lsn gated)

let truncation_floor t ceiling = locked t (fun () -> floor_below t ceiling)

let discard_before t lsn =
  if lsn > t.base then begin
    let cut = lsn - t.base in
    (* Count the discarded records and verify the boundary by decoding. *)
    let c = cursor t t.base and dropped = ref 0 in
    while Codec.Cursor.pos c < cut do
      ignore (Record.read c : Record.t);
      incr dropped
    done;
    if Codec.Cursor.pos c <> cut then
      failwith "Wal.truncate_before: LSN is not a record boundary";
    let keep = t.len - cut in
    let img = Bytes.create (max 4096 keep) in
    Bytes.blit t.img cut img 0 keep;
    t.img <- img;
    t.len <- keep;
    t.count <- t.count - !dropped;
    t.base <- lsn;
    (* Clamp per-table latest-LSN entries that now point below the log:
       [last_lsn_for] must always return a scannable LSN (>= base), and
       clamping to the new base keeps "last_lsn_for < lsn0" a sound
       no-changes test — a clamped entry can only make the quiescence
       fast-path conservatively scan a suffix that contains no records
       for the table, never skip real changes. *)
    Hashtbl.filter_map_inplace
      (fun _ l -> if l < t.base then Some t.base else Some l)
      t.per_table;
    (match t.file with None -> () | Some fs -> rewrite_file t fs);
    Metrics.incr m_truncations
  end

let truncate_before t ceiling =
  if ceiling < t.base || ceiling > end_lsn t then failwith "Wal.truncate_before: bad LSN";
  locked t (fun () ->
      let floor, gated = floor_below t ceiling in
      discard_before t floor;
      gated)

let fold_from t lsn ~init ~f =
  let acc = ref init in
  iter_from t lsn (fun l r -> acc := f !acc l r);
  !acc

let to_list t =
  List.rev (fold_from t t.base ~init:[] ~f:(fun acc l r -> (l, r) :: acc))

let open_file ?group_commit_window path =
  let window = Option.value group_commit_window ~default:default_group_commit_window in
  if window < 1 then invalid_arg "Wal.open_file: group_commit_window < 1";
  (* A leftover temp file is a truncation rewrite that crashed before its
     rename committed: the segment at [path] is still the authoritative
     log, so the temp is discarded, never adopted. *)
  (try Sys.remove (tmp_path path) with Sys_error _ -> ());
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let fs =
    { fd; path; window; pending_commits = 0; unsynced = false; fsync_count = 0;
      durable_lsn = 0 }
  in
  if size < segment_header_size then begin
    (* Nothing durable (a crash before the header landed): start fresh. *)
    Unix.ftruncate fd 0;
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    really_write fd (fresh_segment ());
    fs.unsynced <- true;
    if size > 0 then Metrics.incr m_torn_tails;
    mk ~file:fs ()
  end
  else begin
    let img = Bytes.create size in
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    let rec fill pos =
      if pos < size then begin
        let k = Unix.read fd img pos (size - pos) in
        if k = 0 then failwith "Wal.open_file: short read";
        fill (pos + k)
      end
    in
    fill 0;
    if Bytes.sub_string img 0 8 <> segment_magic then begin
      Unix.close fd;
      failwith "Wal.open_file: bad segment magic"
    end;
    let t = mk ~file:fs () in
    t.base <- Int64.to_int (Bytes.get_int64_le img 8);
    (* Decode frames until the first short, corrupt, or undecodable one —
       a torn tail from a crash mid-append — then truncate the file there:
       the valid prefix is exactly the durable log.  Each payload is
       checksummed and decoded where it lies, then moved down over the
       frame headers before it, so the file image becomes the log image. *)
    t.img <- img;
    let c = Codec.Cursor.create () in
    let rec scan off =
      if off + frame_header_size > size then off
      else begin
        Codec.Cursor.set c img ~pos:off ~len:frame_header_size;
        let len = Codec.Cursor.u32 c in
        let sum = Codec.Cursor.u32 c in
        let pos = off + frame_header_size in
        if len = 0 || len > size - pos || Codec.checksum img ~pos ~len <> sum then off
        else begin
          Codec.Cursor.set c img ~pos ~len;
          match Record.read c with
          | exception Failure _ -> off
          | r when Codec.Cursor.at_end c ->
            note t (end_lsn t) r;
            Bytes.blit img pos img t.len len;
            t.len <- t.len + len;
            scan (pos + len)
          | _ -> off
        end
      end
    in
    let valid_end = scan segment_header_size in
    if valid_end < size then begin
      Unix.ftruncate fd valid_end;
      Metrics.incr m_torn_tails
    end;
    ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
    (* Everything recovered was read back from the file: it is the
       durable horizon until the next append. *)
    fs.durable_lsn <- end_lsn t;
    t
  end
